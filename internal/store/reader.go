package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"dpsadopt/internal/simtime"
)

// Reader is the package's one read path over a .dpsa dataset, and the
// only code that parses its bytes: Open reads the footer, the partition
// directory and the dictionary section, and partitions are decoded on
// demand, so consumers (streaming detection, the API index build, dpsdata,
// the follower) hold O(largest partition × concurrent acquires) in memory
// instead of the whole archive. Load, LoadPartitions, Verify and Directory
// are short views over a Reader; Load is the right call when the caller
// genuinely needs a resident *Store.
//
// Every section is pread whole, checked against its CRC, and only then
// parsed, through the bounds-checked byteCursor — no count or offset in
// the file is trusted before the bytes carrying it passed their checksum,
// and none sizes an allocation beyond the bytes that back it.
//
// Each AcquireBatch is one pread of the partition's byte range,
// CRC-verified against the directory entry over the same buffer that is
// then decoded into a block from the process-wide pools below, so a full
// streaming sweep's steady-state allocations stay bounded by the pools,
// not the dataset. Nothing is cached: every consumer reads a partition
// once per pass.
//
// A Reader is safe for concurrent use. AcquireBatch never writes: a
// corrupt partition surfaces as a *CorruptPartitionError instead of being
// quarantined on disk (quarantine is Load's job — the read path must stay
// usable against files it has no right to move).
type Reader struct {
	path string
	f    *os.File
	size int64

	dir   []PartitionInfo
	byKey map[PartitionKey]PartitionInfo

	// dictRaw is the checksummed dictionary section as Open read it; the
	// first SharedDict parses it and lets it go.
	dictOnce sync.Once
	dictRaw  []byte
	dict     *Dict
	dictErr  error

	closed atomic.Bool
}

// The decoded-block and raw-buffer pools are process-wide, not per Reader:
// the follower opens one Reader per spool and a scan one per pass, so a
// pool that lived in the Reader would start cold every time.
var (
	blockPool = sync.Pool{New: func() any { return &dayBlock{} }} // column slices reused across decodes
	rawPool   = sync.Pool{New: func() any { return new([]byte) }} // raw partition bytes
)

// fit returns buf resized to n elements. A fresh (nil) buffer is sized
// exactly, so the blocks materialise makes resident carry no slack. A
// recycled one that no longer fits is regrown with an eighth of headroom:
// the namespace grows (1.09× over the paper's 550 days), so each day's
// partition is a few rows larger than the last, and a pool of exact-fit
// buffers would miss on almost every day of a forward sweep.
func fit[T any](buf []T, n int) []T {
	switch {
	case cap(buf) >= n:
		return buf[:n]
	case buf == nil:
		return make([]T, n)
	}
	return make([]T, n, n+n/8)
}

// CorruptPartitionError reports a partition whose bytes failed the
// checksum or structural validation during a streaming read — the
// quarantine-candidate signal of the read-only path. The partition's
// rows are never returned; the caller decides whether to skip, fail, or
// hand the file to a salvaging Load (which quarantines on disk).
type CorruptPartitionError struct {
	Source string
	Day    simtime.Day
	Err    error
}

func (e *CorruptPartitionError) Error() string {
	return fmt.Sprintf("store: partition %s/%s unreadable: %v", e.Source, e.Day, e.Err)
}

func (e *CorruptPartitionError) Unwrap() error { return e.Err }

// Open opens a dataset file. It reads the header and footer, then the
// directory and dictionary sections — each pread once and checked against
// its footer CRC before it is parsed or kept. No partition is decoded,
// and the dictionary's strings are decoded lazily on first SharedDict.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{path: path, f: f}
	if err := r.readLayout(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// readLayout reads everything Open needs: header, footer, directory, and
// the raw dictionary section.
func (r *Reader) readLayout() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	r.size = st.Size()
	if err := readHeader(r.f); err != nil {
		return err
	}
	if r.size < headerSize+footerSize {
		return fmt.Errorf("store: file too short for directory footer")
	}
	var foot [footerSize]byte
	if _, err := r.f.ReadAt(foot[:], r.size-footerSize); err != nil {
		return fmt.Errorf("store: reading footer: %w", err)
	}
	c := byteCursor{data: foot[:]}
	dirOff, dictCRC, dirCRC := c.u64(), c.u32(), c.u32()
	if string(c.take(len(dirMagic))) != dirMagic {
		return fmt.Errorf("store: directory footer missing or corrupt")
	}
	dirEnd := uint64(r.size - footerSize)
	if dirOff < headerSize || dirOff >= dirEnd {
		return fmt.Errorf("store: directory offset out of range")
	}

	dirRaw := make([]byte, dirEnd-dirOff)
	if err := r.readChecked(dirRaw, dirOff, dirCRC); err != nil {
		return fmt.Errorf("store: directory: %w", err)
	}
	if err := r.parseDirectory(dirRaw, dirOff); err != nil {
		return err
	}

	// The dict section spans from the header to the first partition (or
	// straight to the directory when the store is empty), including the
	// partition-count word.
	partsStart := dirOff
	if len(r.dir) > 0 {
		partsStart = r.dir[0].offset
	}
	r.dictRaw = make([]byte, partsStart-headerSize)
	if err := r.readChecked(r.dictRaw, headerSize, dictCRC); err != nil {
		return fmt.Errorf("store: dictionary: %w", err)
	}
	return nil
}

// readHeader validates the magic and the format version. Save writes
// persistVersion and is the only producer, so nothing else is read.
func readHeader(f *os.File) error {
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: reading header: %w", err)
	}
	c := byteCursor{data: hdr[:]}
	if string(c.take(len(persistMagic))) != persistMagic {
		return fmt.Errorf("store: not a dataset file")
	}
	if version := c.u32(); version != persistVersion {
		return fmt.Errorf("store: unsupported version %d", version)
	}
	return nil
}

// readChecked fills buf from the file at off and checks it against want:
// the one place file bytes become trusted. The error is a bare cause for
// the caller to name the section in.
func (r *Reader) readChecked(buf []byte, off uint64, want uint32) error {
	if _, err := r.f.ReadAt(buf, int64(off)); err != nil {
		return fmt.Errorf("reading bytes: %w", err)
	}
	if got := crc32.ChecksumIEEE(buf); got != want {
		mCRCFailures.Inc()
		return fmt.Errorf("checksum mismatch (want %08x, got %08x): torn write or corruption at rest", want, got)
	}
	return nil
}

// minDirEntry is the encoded size of a directory entry with an empty
// source name: len u16 | day i64 | rows u32 | offset u64 | length u64 |
// crc u32.
const minDirEntry = 2 + 8 + 4 + 8 + 8 + 4

// parseDirectory decodes the checksummed directory section into r.dir and
// r.byKey. The entry count is bounded by the bytes present before anything
// is sized from it, each key may be listed once, and the partitions must
// tile [first offset, dirOff) in directory order, the way encode lays
// them out — so every byte before the directory belongs to exactly one
// checksummed section.
func (r *Reader) parseDirectory(data []byte, dirOff uint64) error {
	c := byteCursor{data: data}
	count := c.u32()
	if c.err == nil && uint64(count) > uint64(len(data)-c.off)/minDirEntry {
		return fmt.Errorf("store: directory claims %d entries in %d bytes", count, len(data))
	}
	r.dir = make([]PartitionInfo, 0, count)
	r.byKey = make(map[PartitionKey]PartitionInfo, count)
	var next uint64 // where the entry's partition must start
	for i := uint32(0); i < count; i++ {
		var ent PartitionInfo
		ent.Source = c.str()
		ent.Day = simtime.Day(c.u64())
		ent.Rows = int(c.u32())
		ent.offset = c.u64()
		ent.length = c.u64()
		ent.CRC = c.u32()
		if c.err != nil {
			break
		}
		if i == 0 {
			// The dictionary lies between the header and the first partition.
			next = max(ent.offset, headerSize)
		}
		end := ent.offset + ent.length
		if ent.offset != next || end < ent.offset || end > dirOff {
			return fmt.Errorf("store: directory entry %s out of range", ent.Key())
		}
		if _, dup := r.byKey[ent.Key()]; dup {
			return fmt.Errorf("store: directory lists %s twice", ent.Key())
		}
		next = end
		r.dir = append(r.dir, ent)
		r.byKey[ent.Key()] = ent
	}
	switch {
	case c.err != nil:
		return fmt.Errorf("store: directory: %w", c.err)
	case c.off != len(data):
		return fmt.Errorf("store: directory has %d trailing bytes", len(data)-c.off)
	case count > 0 && next != dirOff:
		return fmt.Errorf("store: partitions end at %d, directory starts at %d", next, dirOff)
	}
	return nil
}

// parseDict decodes the checksummed dictionary section: the strings, then
// the partition-count word that closes the section.
func parseDict(data []byte, partitions int) (*Dict, error) {
	c := byteCursor{data: data}
	count := c.u32()
	if c.err == nil && uint64(count) > uint64(len(data)-c.off)/2 {
		return nil, fmt.Errorf("store: dictionary claims %d strings in %d bytes", count, len(data))
	}
	d := &Dict{ids: make(map[string]uint32, count), strs: make([]string, 0, count)}
	for i := uint32(0); i < count && c.err == nil; i++ {
		s := c.str()
		d.ids[s] = i
		d.strs = append(d.strs, s)
	}
	nParts := c.u32()
	switch {
	case c.err != nil:
		return nil, fmt.Errorf("store: dictionary: %w", c.err)
	case c.off != len(data):
		return nil, fmt.Errorf("store: dictionary has %d trailing bytes", len(data)-c.off)
	case int(nParts) != partitions:
		return nil, fmt.Errorf("store: file counts %d partitions, directory lists %d", nParts, partitions)
	}
	return d, nil
}

// Close releases the Reader's file. A batch still outstanding owns its
// block and stays valid until released. Acquires racing Close fail with a
// read error.
func (r *Reader) Close() error {
	r.closed.Store(true)
	return r.f.Close()
}

// Partitions lists the file's (source, day) partitions in sorted
// (source, day) order, from the directory alone.
func (r *Reader) Partitions() []PartitionInfo {
	return append([]PartitionInfo(nil), r.dir...)
}

// Keys lists the file's partition keys in sorted (source, day) order.
func (r *Reader) Keys() []PartitionKey {
	out := make([]PartitionKey, len(r.dir))
	for i, ent := range r.dir {
		out[i] = ent.Key()
	}
	return out
}

// SharedDict returns the file's dictionary, decoding it on first call.
// It implements half of core's BatchSource contract; *Store carries the
// same method for the in-memory side.
func (r *Reader) SharedDict() (*Dict, error) {
	r.dictOnce.Do(func() {
		r.dict, r.dictErr = parseDict(r.dictRaw, len(r.dir))
		r.dictRaw = nil
	})
	return r.dict, r.dictErr
}

// AcquireBatch decodes one partition into a pooled block and returns its
// columnar view plus a release func that hands the block back. The batch
// is valid only until release is called — the backing columns may then be
// recycled for another partition — and release must be called exactly
// once. A checksum or structural failure returns a *CorruptPartitionError;
// a key absent from the directory is a plain error.
func (r *Reader) AcquireBatch(source string, day simtime.Day) (RowBatch, func(), error) {
	noop := func() {}
	k := PartitionKey{Source: source, Day: day}
	ent, ok := r.byKey[k]
	if !ok {
		return RowBatch{}, noop, fmt.Errorf("store: no partition %s in %s", k, r.path)
	}
	dict, err := r.SharedDict()
	if err != nil {
		return RowBatch{}, noop, err
	}
	if r.closed.Load() {
		return RowBatch{}, noop, errors.New("store: reader closed")
	}

	// The store_reader_* traffic counters are AcquireBatch's alone: Load
	// and Verify share the primitives below but are not streaming reads.
	blk := blockPool.Get().(*dayBlock)
	err = r.decodePartition(&ent, dict.Len(), blk)
	mReaderBytesRead.Add(int64(ent.length))
	if err != nil {
		blockPool.Put(blk)
		return RowBatch{}, noop, &CorruptPartitionError{Source: ent.Source, Day: ent.Day, Err: err}
	}
	mReaderPartitionsDecoded.Inc()
	return blk.batch(), func() { blockPool.Put(blk) }, nil
}

// checkedBytes preads one partition's byte range into a pooled buffer
// and checks it against the directory entry's CRC. The caller hands the
// buffer back to rawPool.
func (r *Reader) checkedBytes(ent *PartitionInfo) (*[]byte, error) {
	bufp := rawPool.Get().(*[]byte)
	if uint64(cap(*bufp)) < ent.length {
		*bufp = make([]byte, ent.length)
	}
	*bufp = (*bufp)[:ent.length]
	if err := r.readChecked(*bufp, ent.offset, ent.CRC); err != nil {
		rawPool.Put(bufp)
		return nil, err
	}
	return bufp, nil
}

// decodePartition is the one partition read: pread and CRC-check the
// entry's byte range, decode that same buffer into blk (reusing blk's
// column slices), validate it, and hold it to what the directory said
// about it. The error is the bare cause; callers name the partition.
func (r *Reader) decodePartition(ent *PartitionInfo, dictLen int, blk *dayBlock) error {
	bufp, err := r.checkedBytes(ent)
	if err != nil {
		return err
	}
	defer rawPool.Put(bufp)
	source, day, err := decodeBlockInto(*bufp, blk, dictLen)
	if err != nil {
		return err
	}
	if source != ent.Source || day != ent.Day || blk.rows() != ent.Rows {
		return fmt.Errorf("directory points at partition %s/%s with %d rows", source, day, blk.rows())
	}
	return nil
}

// batch is the RowBatch view of a decoded block (the Reader-side twin of
// Store.RowBatch).
func (b *dayBlock) batch() RowBatch {
	return RowBatch{
		Domains: b.domains,
		Kinds:   b.kinds,
		Addrs:   b.addrs,
		Addrs6:  b.addrs6,
		Strs:    b.strs,
		asnOff:  b.asnOff,
		asnVals: b.asnVals,
	}
}

// decodeBlockInto parses one partition's serialized bytes (the exact
// range a directory entry names) into b, reusing b's column slices, and
// validates the block before returning. Every count in the partition
// header is checked against the bytes present before a column is sized
// from it.
func decodeBlockInto(data []byte, b *dayBlock, dictLen int) (source string, day simtime.Day, err error) {
	c := byteCursor{data: data}
	source = c.str()
	day = simtime.Day(c.u64())
	rows := c.u32()
	nV6 := c.u32()
	nASN := c.u32()
	if c.err != nil {
		return "", 0, c.err
	}
	if rows > maxPersistCount || nV6 > rows || nASN > maxPersistCount {
		return "", 0, fmt.Errorf("store: corrupt partition header")
	}
	b.domains = c.u32sInto(b.domains, int(rows))
	kindBytes := c.take(int(rows))
	b.addrs = c.u32sInto(b.addrs, int(rows))
	v6Bytes := c.take(16 * int(nV6))
	b.strs = c.u32sInto(b.strs, int(rows))
	b.asnOff = c.u32sInto(b.asnOff, int(rows))
	b.asnVals = c.u32sInto(b.asnVals, int(nASN))
	if c.err != nil {
		return "", 0, c.err
	}
	if c.off != len(data) {
		return "", 0, fmt.Errorf("store: partition has %d trailing bytes", len(data)-c.off)
	}
	b.kinds = fit(b.kinds, int(rows))
	for i, k := range kindBytes {
		if Kind(k) >= numKinds {
			return "", 0, fmt.Errorf("store: bad kind %d", k)
		}
		b.kinds[i] = Kind(k)
	}
	b.addrs6 = fit(b.addrs6, int(nV6))
	for i := range b.addrs6 {
		copy(b.addrs6[i][:], v6Bytes[16*i:])
	}
	if err := validateBlock(b, dictLen); err != nil {
		return "", 0, err
	}
	return source, day, nil
}

// maxPersistCount bounds a partition header's element counts.
const maxPersistCount = 1 << 30

// validateBlock checks cross-column invariants of a decoded partition so a
// corrupt file cannot cause out-of-range panics later.
func validateBlock(b *dayBlock, dictLen int) error {
	for i := range b.domains {
		if int(b.domains[i]) >= dictLen {
			return fmt.Errorf("store: domain id out of range")
		}
		if b.strs[i] != ^uint32(0) && int(b.strs[i]) >= dictLen {
			return fmt.Errorf("store: string id out of range")
		}
		if isV6Kind(b.kinds[i]) && int(b.addrs[i]) >= len(b.addrs6) {
			return fmt.Errorf("store: v6 index out of range")
		}
		if int(b.asnOff[i]) > len(b.asnVals) {
			return fmt.Errorf("store: ASN offset out of range")
		}
		if i > 0 && b.asnOff[i] < b.asnOff[i-1] {
			return fmt.Errorf("store: ASN offsets not monotone")
		}
	}
	return nil
}

// byteCursor walks a byte slice with a sticky error, so decode code
// reads linearly and checks once. It is the only thing in the package
// that turns file bytes into integers or strings.
type byteCursor struct {
	data []byte
	off  int
	err  error
}

func (c *byteCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	p := c.data[c.off : c.off+n]
	c.off += n
	return p
}

func (c *byteCursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *byteCursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (c *byteCursor) str() string {
	p := c.take(2)
	if p == nil {
		return ""
	}
	return string(c.take(int(binary.LittleEndian.Uint16(p))))
}

// u32sInto decodes n little-endian uint32s, reusing dst's backing array
// when it is large enough.
func (c *byteCursor) u32sInto(dst []uint32, n int) []uint32 {
	p := c.take(4 * n)
	if p == nil {
		return dst[:0]
	}
	dst = fit(dst, n)
	loadU32s(dst, p)
	return dst
}

// ReaderInfo summarises a dataset from its directory alone — what
// dpsdata -info prints without decoding a single partition.
type ReaderInfo struct {
	Path       string
	Version    uint32
	FileBytes  int64
	Partitions int
	Rows       int64
	// PartitionBytes sums the directory's partition byte ranges.
	PartitionBytes int64
	Sources        []string
	FirstDay       simtime.Day
	LastDay        simtime.Day
}

// Info summarises the open dataset without decoding any partition.
func (r *Reader) Info() ReaderInfo {
	info := ReaderInfo{
		Path:       r.path,
		Version:    persistVersion,
		FileBytes:  r.size,
		Partitions: len(r.dir),
	}
	seen := make(map[string]bool)
	for i, ent := range r.dir {
		info.Rows += int64(ent.Rows)
		info.PartitionBytes += int64(ent.length)
		if !seen[ent.Source] {
			seen[ent.Source] = true
			info.Sources = append(info.Sources, ent.Source)
		}
		if i == 0 || ent.Day < info.FirstDay {
			info.FirstDay = ent.Day
		}
		if i == 0 || ent.Day > info.LastDay {
			info.LastDay = ent.Day
		}
	}
	sort.Strings(info.Sources)
	return info
}

// SharedDict implements core's BatchSource contract for the in-memory
// store: the dictionary is already resident.
func (s *Store) SharedDict() (*Dict, error) { return s.dict, nil }

// AcquireBatch implements core's BatchSource contract for the in-memory
// store: the batch aliases resident columns, so release is a no-op and a
// missing partition is an empty batch (matching RowBatch's semantics).
func (s *Store) AcquireBatch(source string, day simtime.Day) (RowBatch, func(), error) {
	b, _ := s.RowBatch(source, day)
	return b, func() {}, nil
}
