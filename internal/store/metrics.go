package store

import "dpsadopt/internal/obs"

// Stage III storage metrics. Resident rows, raised at Commit (the append
// path), track the streaming runner's measure-fold-drop cycle.
var (
	mResidentRows = obs.Default().Gauge("store_resident_rows",
		"rows currently resident across partitions (falls when days are dropped)")
	// Crash-safety counters for the v4 checksummed format: CRC failures
	// count detected torn writes / corruption at rest, quarantines count
	// partitions (or whole spool files) moved aside by salvaging loads.
	mCRCFailures = obs.Default().Counter("store_crc_failures_total",
		"partition/dictionary/directory checksum mismatches detected at load")
	mQuarantined = obs.Default().Counter("store_quarantined_partitions_total",
		"damaged partitions moved into quarantine/ by salvaging loads")
	// Read path (store.Reader): AcquireBatch's traffic — on-demand
	// partition decodes and raw bytes pread. The counters move in
	// AcquireBatch only, not when Load or Verify read through the same
	// Reader, so they stay a measure of streaming reads.
	mReaderPartitionsDecoded = obs.Default().Counter("store_reader_partitions_decoded_total",
		"partitions decoded on demand by streaming readers")
	mReaderBytesRead = obs.Default().Counter("store_reader_bytes_read_total",
		"partition bytes pread from dataset files by streaming readers")
)
