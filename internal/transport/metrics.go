package transport

import "dpsadopt/internal/obs"

// Process-wide transport metrics, registered on the default registry so
// every network instance (in-memory or UDP) feeds the same series.
var (
	mPacketsSent = obs.Default().Counter("transport_packets_sent_total",
		"datagrams delivered to a bound endpoint")
	mBytesSent = obs.Default().Counter("transport_bytes_sent_total",
		"payload bytes of delivered datagrams")
)
