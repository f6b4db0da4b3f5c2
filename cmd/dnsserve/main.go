// Command dnsserve materialises one day of the simulated Internet as real
// DNS servers over kernel UDP sockets (loopback, NAT-translated), prints
// the root server address, and serves until interrupted. Point the
// repository's resolver — or any custom client built on
// internal/dnsclient — at the printed root to browse the simulated
// namespace; with -resolve it performs a demonstration lookup itself.
//
// Fault injection: -fault-scenario degrades the served namespace with a
// named chaos scenario — response loss, duplication and delay on the
// network path, plus SERVFAIL bursts, slow responses and truncation on
// the authoritative servers themselves — so resolver hardening can be
// exercised against live kernel-socket traffic. -fault-seed pins the
// pattern; root servers are never blackholed.
//
// SIGINT/SIGTERM stop the servers and drain the -metrics-addr endpoint.
//
// Usage:
//
//	dnsserve [-scale 400000] [-date 2015-03-05] [-resolve www.DOMAIN]
//	         [-fault-scenario dead-ns] [-fault-seed 7] [-metrics-addr :9091]
//	         [-prof-mutex 5] [-prof-block 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dpsadopt/cmd/internal/cli"
	"dpsadopt/internal/dnsclient"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/experiment"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/transport"
)

func main() {
	var (
		scale       = flag.Int("scale", 400_000, "world scale divisor (keep coarse: every domain gets a zone)")
		date        = flag.String("date", "2015-03-05", "day to serve")
		resolve     = flag.String("resolve", "", "name to resolve as a demonstration, then keep serving")
		axfr        = flag.String("axfr", "", "zone to transfer (AXFR over TCP) as a demonstration")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	)
	flags := cli.Parse("dnsserve", cli.Profiling|cli.Faults)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer cli.ServeMetrics(*metricsAddr)()

	day, err := simtime.Parse(*date)
	if err != nil {
		log.Fatal(err)
	}
	w := cli.World(*scale)
	// One day, one network: the fault pattern is -fault-seed's itself.
	network, armWire := experiment.ArmDay(transport.NewMappedUDP(), flags.Fault, flags.FaultSeed)
	wire, err := w.BuildWire(day, network)
	if err != nil {
		log.Fatal(err)
	}
	defer wire.Close()
	armWire(wire)
	fmt.Printf("serving %s; simulated root at %v (NAT over loopback UDP)\n", day, wire.Roots[0])

	if *resolve != "" {
		r, err := dnsclient.NewResolver(network, netip.MustParseAddr("10.250.0.1"), wire.Roots, 1)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		for _, qt := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS} {
			res, err := r.Resolve(context.Background(), strings.ToLower(*resolve), qt)
			if err != nil {
				fmt.Printf("resolve %s %s: %v\n", *resolve, qt, err)
				continue
			}
			fmt.Printf(";; %s %s -> %s, %d records\n", *resolve, qt, res.RCode, len(res.Records))
			for _, rr := range res.Records {
				fmt.Println("  ", rr)
			}
		}
	}

	if *axfr != "" {
		r, err := dnsclient.NewResolver(network, netip.MustParseAddr("10.250.0.2"), wire.Roots, 2)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		// Find the TLD server: resolve the zone's NS, then its address.
		res, err := r.Resolve(context.Background(), strings.ToLower(*axfr), dnswire.TypeNS)
		if err != nil || len(res.Records) == 0 {
			fmt.Printf("axfr: cannot find NS for %s: %v\n", *axfr, err)
		} else if ns, ok := res.Records[0].Data.(dnswire.NS); ok {
			addrRes, err := r.Resolve(context.Background(), ns.Host, dnswire.TypeA)
			if err != nil || len(addrRes.Addrs()) == 0 {
				fmt.Printf("axfr: cannot resolve %s: %v\n", ns.Host, err)
			} else {
				server := netip.AddrPortFrom(addrRes.Addrs()[0], transport.DNSPort)
				records, err := r.AXFR(server, *axfr)
				if err != nil {
					fmt.Printf("axfr %s: %v\n", *axfr, err)
				} else {
					fmt.Printf(";; AXFR %s from %v: %d records\n", *axfr, server, len(records))
					for i, rr := range records {
						if i >= 8 {
							fmt.Printf("   ... %d more\n", len(records)-8)
							break
						}
						fmt.Println("  ", rr)
					}
				}
			}
		}
	}

	fmt.Println("press Ctrl-C to stop")
	<-ctx.Done()
	fmt.Println("shutting down")
}
