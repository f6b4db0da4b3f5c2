package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"dpsadopt/internal/simtime"
)

// On-disk format (version 4): a flate-free framed binary archive (the
// columns are already dictionary-encoded; callers can compress the file
// externally).
//
//	header:     magic "DPSA" | version u32
//	dictionary: count u32, then per string: len u16 + bytes
//	            | partition count u32
//	partitions: per partition, back to back:
//	  source len u16 + bytes | day i64 | rows u32 | v6 count u32 |
//	  asnVals count u32 | columns in order (domains, kinds, addrs,
//	  addrs6, strs, asnOff, asnVals)
//	directory:  count u32, then per partition:
//	  source len u16 + bytes | day i64 | rows u32 |
//	  offset u64 | length u64 | crc u32     (the partition's byte range)
//	footer:     directory offset u64 | dict crc u32 | dir crc u32 | "DPSD"
//
// The file is crash-evident: every checksum is a CRC32 (IEEE), a
// directory entry's covers its partition's byte range, the dict checksum
// covers [8, first partition offset) — the dictionary plus the
// partition-count word — and the dir checksum covers [directory offset,
// footer start). The partitions tile the span between the two, so every
// byte between header and footer is covered and a torn write or bit flip
// anywhere is detected when it is read instead of surfacing as silently
// wrong data. Loads degrade gracefully: a damaged partition is
// quarantined (see PartialLoadError) while the surviving partitions still
// load.
//
// All integers are little-endian. Partitions are written in sorted
// (source, day) order, so saving the same store twice yields identical
// bytes.
//
// This file holds the writer and the whole-file entry points. Every byte
// read back goes through Reader (reader.go), the package's only decoder;
// Load, LoadPartitions, Verify and Directory are views over Open. Save is
// the only producer, so no other version is read.

const (
	persistMagic   = "DPSA"
	persistVersion = 4
	dirMagic       = "DPSD"
	headerSize     = 4 + 4     // persistMagic + version
	footerSize     = 8 + 8 + 4 // directory offset + dict/dir CRCs + dirMagic
)

// PartitionInfo describes one (source, day) partition listed in a
// dataset file's directory.
type PartitionInfo struct {
	Source string
	Day    simtime.Day
	Rows   int
	// CRC is the partition byte range's CRC32 (IEEE).
	CRC uint32

	offset, length uint64
}

// PartitionKey identifies one (source, day) partition — the map key for
// keyed directory lookups and follower applied-set bookkeeping.
type PartitionKey struct {
	Source string
	Day    simtime.Day
}

// Key returns the entry's map key.
func (pi PartitionInfo) Key() PartitionKey { return PartitionKey{pi.Source, pi.Day} }

// Extent reports where the partition's bytes live in the file — the
// pread range a streaming read covers and the span an operator would
// carve out of a damaged file for offline salvage.
func (pi PartitionInfo) Extent() (offset, length uint64) { return pi.offset, pi.length }

func (k PartitionKey) String() string { return fmt.Sprintf("%s/%s", k.Source, k.Day) }

// QuarantinedPartition records one damaged partition that a salvaging
// load moved aside instead of returning as silently wrong data.
type QuarantinedPartition struct {
	Source string
	Day    simtime.Day
	// Path is the quarantine file holding the partition's raw bytes
	// (empty when writing the quarantine file itself failed).
	Path string
	// Err is the descriptive load failure (checksum mismatch, truncated
	// column, out-of-range ID, ...).
	Err string
}

// PartialLoadError reports a salvaged load: the store returned alongside
// it holds every surviving partition, and the damaged ones listed here
// were quarantined into a quarantine/ directory next to the dataset.
// Callers that can tolerate partial data (degraded-day accounting masks
// the missing days downstream) should errors.As for this type and
// continue with the returned store.
type PartialLoadError struct {
	Quarantined []QuarantinedPartition
}

func (e *PartialLoadError) Error() string {
	if len(e.Quarantined) == 1 {
		q := e.Quarantined[0]
		return fmt.Sprintf("store: partition %s/%s quarantined: %s", q.Source, q.Day, q.Err)
	}
	return fmt.Sprintf("store: %d partitions quarantined (first: %s/%s: %s)",
		len(e.Quarantined), e.Quarantined[0].Source, e.Quarantined[0].Day, e.Quarantined[0].Err)
}

// Save writes the store to path atomically and durably: the bytes go to
// a temp file in the target directory, are fsynced, and only then
// renamed over path (followed by a directory fsync), so a crash at any
// instant leaves either the old complete file or the new complete file —
// never a torn .dpsa.
func (s *Store) Save(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	w := bufio.NewWriterSize(f, 1<<20)
	err = s.encode(w, writeU32s)
	if err == nil {
		err = w.Flush()
	}
	// CreateTemp makes the file 0600; a dataset is read by processes of
	// other users (a dpsapi serving it), so it gets the mode of the
	// quarantine .reason files.
	if err == nil {
		err = f.Chmod(0o644)
	}
	// The data must be durable before the rename publishes it: a rename
	// surviving a crash that the data did not would be a torn file with
	// a valid name.
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Load reads a whole dataset written by Save into a resident store: Open
// plus a decode of every partition in the directory. Damaged partitions do
// not fail the load: they are quarantined into a quarantine/ directory
// next to path and reported via a *PartialLoadError, while every
// surviving partition is returned in the store. Damage to the sections
// every partition depends on (header, footer, directory, dictionary) is
// unrecoverable and returns a nil store.
func Load(path string) (*Store, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.materialise(r.dir)
}

// LoadPartition is LoadPartitions for a single (source, day) key. The
// returned store contains exactly one partition.
func LoadPartition(path, source string, day simtime.Day) (*Store, error) {
	return LoadPartitions(path, []PartitionKey{{source, day}})
}

// LoadPartitions decodes a set of (source, day) partitions — plus the
// shared dictionary — into a resident store: one Open, one keyed lookup
// and one pread per requested partition, never a full-archive decode. A
// requested partition missing from the directory fails the whole load; a
// damaged partition is quarantined and reported via *PartialLoadError
// while the surviving requested partitions still load.
func LoadPartitions(path string, keys []PartitionKey) (*Store, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	ents := make([]PartitionInfo, len(keys))
	for i, k := range keys {
		ent, ok := r.byKey[k]
		if !ok {
			return nil, fmt.Errorf("store: no partition %s in %s", k, path)
		}
		ents[i] = ent
	}
	return r.materialise(ents)
}

// materialise decodes ents into a store that owns its blocks and the
// dictionary (nothing in it aliases the free lists, so it outlives
// the Reader). A partition that fails its checksum or validation is
// quarantined beside the file — the one write in the read path, and the
// reason followers and servers use AcquireBatch instead.
func (r *Reader) materialise(ents []PartitionInfo) (*Store, error) {
	dict, err := r.SharedDict()
	if err != nil {
		return nil, err
	}
	s := New()
	s.dict = dict
	var quarantined []QuarantinedPartition
	for i := range ents {
		ent := &ents[i]
		blk := &dayBlock{}
		if err := r.decodePartition(ent, dict.Len(), blk); err != nil {
			quarantined = append(quarantined, quarantinePartition(r.path, r.f, ent, err))
			continue
		}
		days := s.blocks[ent.Source]
		if days == nil {
			days = make(map[simtime.Day]*dayBlock)
			s.blocks[ent.Source] = days
		}
		days[ent.Day] = blk
		mResidentRows.Add(float64(blk.rows()))
	}
	if len(quarantined) > 0 {
		mQuarantined.Add(int64(len(quarantined)))
		return s, &PartialLoadError{Quarantined: quarantined}
	}
	return s, nil
}

// Verify checks a dataset file's integrity without building a store:
// everything Open checks (header, footer, directory and dictionary
// checksums, directory structure) plus every partition's checksum. A nil
// return means no byte between header and footer changed since Save wrote
// it.
func Verify(path string) error {
	r, err := Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	for i := range r.dir {
		bufp, err := r.checkedBytes(&r.dir[i])
		if err != nil {
			return fmt.Errorf("store: partition %s: %w", r.dir[i].Key(), err)
		}
		rawBufs.put(bufp)
	}
	return nil
}

// Directory lists a dataset file's partitions without decoding any data.
func Directory(path string) ([]PartitionInfo, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.dir, nil
}

// quarantinePartition copies a damaged partition's raw bytes into a
// quarantine/ directory next to the dataset, with a .reason file
// describing the failure. Quarantine I/O failures never fail the load;
// the report then carries an empty Path.
func quarantinePartition(path string, f *os.File, ent *PartitionInfo, cause error) QuarantinedPartition {
	q := QuarantinedPartition{Source: ent.Source, Day: ent.Day, Err: cause.Error()}
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return q
	}
	base := filepath.Base(path)
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%s.%s.part", base, ent.Source, ent.Day))
	out, err := os.Create(dst)
	if err != nil {
		return q
	}
	_, cpErr := io.Copy(out, io.NewSectionReader(f, int64(ent.offset), int64(ent.length)))
	if closeErr := out.Close(); cpErr == nil {
		cpErr = closeErr
	}
	if cpErr != nil {
		os.Remove(dst)
		return q
	}
	q.Path = dst
	reason := fmt.Sprintf("dataset: %s\npartition: %s/%s\nbytes: [%d, %d)\nerror: %s\n",
		path, ent.Source, ent.Day, ent.offset, ent.offset+ent.length, cause)
	_ = os.WriteFile(dst+".reason", []byte(reason), 0o644)
	return q
}

// QuarantineFile moves a whole damaged dataset file into a quarantine/
// directory next to it, with a .reason file, and returns the new path.
// Used when a file is unsalvageable (or is a single-partition spool). A
// file an earlier call already moved is reported at its quarantined path
// again, without being moved or counted twice; a file that is in neither
// place yields an error wrapping fs.ErrNotExist.
func QuarantineFile(path string, cause error) (string, error) {
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if _, serr := os.Stat(dst); serr != nil {
			return "", err
		}
		return dst, nil
	}
	reason := fmt.Sprintf("dataset: %s\nerror: %s\n", path, cause)
	_ = os.WriteFile(dst+".reason", []byte(reason), 0o644)
	mQuarantined.Inc()
	return dst, nil
}

// offsetWriter tracks the byte offset of everything written through it,
// plus a running CRC32 that encode resets at section boundaries, so the
// directory can record partition positions and checksums.
type offsetWriter struct {
	w   io.Writer
	n   uint64
	crc uint32
}

func (o *offsetWriter) Write(p []byte) (int, error) {
	n, err := o.w.Write(p)
	o.n += uint64(n)
	o.crc = crc32.Update(o.crc, crc32.IEEETable, p[:n])
	return n, err
}

// encode writes the whole file image to dst. putU32s writes a uint32
// column: writeU32s everywhere but the codec-equivalence test.
func (s *Store) encode(dst io.Writer, putU32s func(io.Writer, []uint32) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := &offsetWriter{w: dst}
	if _, err := io.WriteString(w, persistMagic); err != nil {
		return err
	}
	if err := writeU32(w, persistVersion); err != nil {
		return err
	}
	w.crc = 0 // dict section checksum starts after the header
	// Dictionary.
	s.dict.mu.RLock()
	strs := s.dict.strs
	if err := writeU32(w, uint32(len(strs))); err != nil {
		s.dict.mu.RUnlock()
		return err
	}
	for _, str := range strs {
		if err := writeStr(w, str); err != nil {
			s.dict.mu.RUnlock()
			return err
		}
	}
	s.dict.mu.RUnlock()
	// Partitions, in sorted (source, day) order for deterministic bytes.
	sources := make([]string, 0, len(s.blocks))
	for src := range s.blocks {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	nParts := 0
	for _, days := range s.blocks {
		nParts += len(days)
	}
	if err := writeU32(w, uint32(nParts)); err != nil {
		return err
	}
	dictCRC := w.crc // covers dict + partition count word
	dir := make([]PartitionInfo, 0, nParts)
	for _, source := range sources {
		days := make([]simtime.Day, 0, len(s.blocks[source]))
		for day := range s.blocks[source] {
			days = append(days, day)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		for _, day := range days {
			b := s.blocks[source][day]
			start := w.n
			w.crc = 0
			if err := writePartition(w, source, day, b, putU32s); err != nil {
				return err
			}
			dir = append(dir, PartitionInfo{
				Source: source, Day: day, Rows: b.rows(), CRC: w.crc,
				offset: start, length: w.n - start,
			})
		}
	}
	// Directory + footer.
	dirOff := w.n
	w.crc = 0
	if err := writeU32(w, uint32(len(dir))); err != nil {
		return err
	}
	for _, ent := range dir {
		if err := writeStr(w, ent.Source); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, int64(ent.Day)); err != nil {
			return err
		}
		if err := writeU32(w, uint32(ent.Rows)); err != nil {
			return err
		}
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], ent.offset)
		binary.LittleEndian.PutUint64(buf[8:], ent.length)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		if err := writeU32(w, ent.CRC); err != nil {
			return err
		}
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[:8], dirOff)
	binary.LittleEndian.PutUint32(foot[8:12], dictCRC)
	binary.LittleEndian.PutUint32(foot[12:16], w.crc)
	copy(foot[16:], dirMagic)
	_, err := w.Write(foot[:])
	return err
}

// writePartition serialises one (source, day) block. The uint32 and kinds
// columns go to w as they lie in memory where the host allows it — w is the
// CRC-ing offsetWriter, which neither keeps nor modifies what it is handed.
func writePartition(w io.Writer, source string, day simtime.Day, b *dayBlock, putU32s func(io.Writer, []uint32) error) error {
	if err := writeStr(w, source); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(day)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(b.rows())); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(b.addrs6))); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(b.asnVals))); err != nil {
		return err
	}
	if err := putU32s(w, b.domains); err != nil {
		return err
	}
	if _, err := w.Write(columnBytes(b.kinds)); err != nil {
		return err
	}
	if err := putU32s(w, b.addrs); err != nil {
		return err
	}
	for _, a := range b.addrs6 {
		if _, err := w.Write(a[:]); err != nil {
			return err
		}
	}
	if err := putU32s(w, b.strs); err != nil {
		return err
	}
	if err := putU32s(w, b.asnOff); err != nil {
		return err
	}
	return putU32s(w, b.asnVals)
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeStr(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("store: string too long")
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}
