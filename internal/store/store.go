// Package store holds measurement results the way the paper's cluster
// does (§3.5): partitioned per source (TLD or list) per day, in columnar
// form with dictionary encoding — name servers and CNAME targets repeat
// massively across domains, so interning them is what makes a 23 TiB
// archive (or its scaled-down counterpart) tractable.
//
// A row is one stored data point: (domain, record kind, value), where the
// value is an IPv4 address, an interned string (CNAME target or NS host),
// and optionally the supplemented origin-AS set (§3.2).
package store

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"dpsadopt/internal/simtime"
)

// Kind classifies a stored record.
type Kind uint8

// Record kinds: the query/label combinations the pipeline issues.
const (
	KindApexA Kind = iota
	KindApexAAAA
	KindWWWA
	KindWWWAAAA
	KindWWWCNAME
	KindNS
	numKinds
)

var kindNames = [numKinds]string{"apex/A", "apex/AAAA", "www/A", "www/AAAA", "www/CNAME", "NS"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Row is one data point in presentation form.
type Row struct {
	Domain string
	Kind   Kind
	// Addr is set for address kinds.
	Addr netip.Addr
	// Str is the CNAME target or NS host for string kinds.
	Str string
	// ASNs is the supplemented origin-AS set for address kinds (empty
	// when the address was not covered by any announced prefix).
	ASNs []uint32
}

// NoStr is the Strs-column sentinel marking an address row (no interned
// string value).
const NoStr = ^uint32(0)

// Dict interns strings (domain names, NS hosts, CNAME targets).
type Dict struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewDict creates an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]uint32)}
}

// intern is ID with d.mu held for writing.
func (d *Dict) intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return id
}

// Str resolves an interned ID.
func (d *Dict) Str(id uint32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.strs[id]
}

// Len returns the number of interned strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strs)
}

// dayBlock is the columnar storage of one (source, day) partition.
type dayBlock struct {
	domains []uint32 // dict IDs
	kinds   []Kind
	// addrs holds IPv4 addresses as big-endian uint32; for IPv6 rows it
	// is an index into addrs6 (the row's kind disambiguates); 0 for
	// string kinds.
	addrs  []uint32
	addrs6 [][16]byte
	strs   []uint32 // dict IDs; ^0 for address kinds
	// asns is a packed adjacency: asnOff[i]..asnOff[i+1] index into
	// asnVals for row i.
	asnOff  []uint32
	asnVals []uint32
}

func (b *dayBlock) rows() int { return len(b.domains) }

// Store accumulates measurement rows.
type Store struct {
	mu     sync.RWMutex
	dict   *Dict
	blocks map[string]map[simtime.Day]*dayBlock
}

// New creates an empty store.
func New() *Store {
	return &Store{
		dict:   NewDict(),
		blocks: make(map[string]map[simtime.Day]*dayBlock),
	}
}

// Dict exposes the store's dictionary (writers intern into it at commit).
func (s *Store) Dict() *Dict { return s.dict }

// Writer batches appends into one (source, day) partition, one goroutine
// at a time. Its rows carry writer-local string IDs until Commit.
type Writer struct {
	store  *Store
	source string
	day    simtime.Day
	buf    *writerBuf // nil until the first row, and again after a commit
	// The last row's domain and its local ID, shared by a run of its rows.
	lastDomain string
	lastID     uint32
}

// writerBuf is a writer's scratch, pooled in bufPool across commits: its
// rows in writer-local IDs, the strings they name, and the value memo.
type writerBuf struct {
	block  dayBlock
	local  []string          // local ID → string
	values map[string]uint32 // CNAME/NS value → local ID
	global []uint32          // local ID → dict ID, filled during a commit
}

var bufPool = sync.Pool{New: func() any { return &writerBuf{values: make(map[string]uint32)} }}

// NewWriter opens a writer for one partition.
func (s *Store) NewWriter(source string, day simtime.Day) *Writer {
	return &Writer{store: s, source: source, day: day}
}

// startRow appends a row's domain and kind to the writer's scratch, taken
// from the pool at the first row. The domain gets a new local ID unless it
// is the previous row's, so a domain repeated out of order gets a second.
func (w *Writer) startRow(domain string, kind Kind) *dayBlock {
	if w.buf == nil {
		w.buf = bufPool.Get().(*writerBuf)
	}
	b := w.buf
	if b.block.rows() == 0 || domain != w.lastDomain {
		w.lastDomain, w.lastID = domain, uint32(len(b.local))
		b.local = append(b.local, domain)
	}
	b.block.domains = append(b.block.domains, w.lastID)
	b.block.kinds = append(b.block.kinds, kind)
	return &b.block
}

// AddAddr appends an address row (IPv4 or IPv6).
func (w *Writer) AddAddr(domain string, kind Kind, addr netip.Addr, asns []uint32) {
	b := w.startRow(domain, kind)
	if addr.Is4() {
		b.addrs = append(b.addrs, addrU32(addr))
	} else {
		b.addrs = append(b.addrs, uint32(len(b.addrs6)))
		b.addrs6 = append(b.addrs6, addr.As16())
	}
	b.strs = append(b.strs, NoStr)
	b.asnOff = append(b.asnOff, uint32(len(b.asnVals)))
	b.asnVals = append(b.asnVals, asns...)
}

// AddStr appends a string row (CNAME target or NS host).
func (w *Writer) AddStr(domain string, kind Kind, value string) {
	b, buf := w.startRow(domain, kind), w.buf
	b.addrs = append(b.addrs, 0)
	id, ok := buf.values[value]
	if !ok {
		id = uint32(len(buf.local))
		buf.local = append(buf.local, value)
		buf.values[value] = id
	}
	b.strs = append(b.strs, id)
	b.asnOff = append(b.asnOff, uint32(len(b.asnVals)))
}

// Rows returns the number of buffered rows.
func (w *Writer) Rows() int {
	if w.buf == nil {
		return 0
	}
	return w.buf.block.rows()
}

// Commit merges the writer's rows into the store: Commit of one writer.
// The writer is reset and may be reused for the same partition.
func (w *Writer) Commit() { Commit(w) }

// Commit merges the rows of writers opened on one partition into it, in
// argument order, and resets them. Under one dictionary lock it interns in
// row order — domain, then value — so IDs are one writer's whatever the
// chunking. A new partition is allocated once, at its final size.
func Commit(ws ...*Writer) {
	var rows, v6, asns int
	for _, w := range ws {
		if w.buf != nil { // a writer holds scratch only while it has rows
			b := &w.buf.block
			rows, v6, asns = rows+b.rows(), v6+len(b.addrs6), asns+len(b.asnVals)
		}
	}
	if rows == 0 {
		return
	}
	first := ws[0]
	s := first.store
	s.dict.mu.Lock()
	for _, w := range ws {
		if w.buf != nil {
			w.buf.remap(s.dict)
		}
	}
	s.dict.mu.Unlock()
	mResidentRows.Add(float64(rows))
	s.mu.Lock()
	defer s.mu.Unlock()
	days := s.blocks[first.source]
	if days == nil {
		days = make(map[simtime.Day]*dayBlock)
		s.blocks[first.source] = days
	}
	blk := days[first.day]
	if blk == nil {
		blk = &dayBlock{domains: make([]uint32, 0, rows), kinds: make([]Kind, 0, rows),
			addrs: make([]uint32, 0, rows), addrs6: make([][16]byte, 0, v6), strs: make([]uint32, 0, rows),
			asnOff: make([]uint32, 0, rows), asnVals: make([]uint32, 0, asns)}
		days[first.day] = blk
	}
	for _, w := range ws {
		if b := w.buf; b != nil { // append, then return the scratch emptied
			blk.append(&b.block)
			k := &b.block
			*k = dayBlock{k.domains[:0], k.kinds[:0], k.addrs[:0], k.addrs6[:0], k.strs[:0], k.asnOff[:0], k.asnVals[:0]}
			clear(b.local) // drop the string references, keep the array
			b.local = b.local[:0]
			clear(b.values)
			bufPool.Put(b)
			w.buf = nil
		}
	}
}

// append copies src's rows after b's, rebasing src's IPv6 and ASN offsets.
func (b *dayBlock) append(src *dayBlock) {
	base := uint32(len(b.asnVals))
	base6 := uint32(len(b.addrs6))
	b.domains = append(b.domains, src.domains...)
	b.kinds = append(b.kinds, src.kinds...)
	start := len(b.addrs)
	b.addrs = append(b.addrs, src.addrs...)
	for i, k := range src.kinds {
		if isV6Kind(k) {
			b.addrs[start+i] += base6
		}
	}
	b.addrs6 = append(b.addrs6, src.addrs6...)
	b.strs = append(b.strs, src.strs...)
	for _, off := range src.asnOff {
		b.asnOff = append(b.asnOff, off+base)
	}
	b.asnVals = append(b.asnVals, src.asnVals...)
}

// remap rewrites the buffered rows' local IDs as dictionary IDs, interning
// each local string at its first row. d.mu is held for writing.
func (b *writerBuf) remap(d *Dict) {
	global := b.global[:0]
	for range b.local {
		global = append(global, NoStr)
	}
	b.global = global
	blk := &b.block
	for i, id := range blk.domains {
		if global[id] == NoStr {
			global[id] = d.intern(b.local[id])
		}
		blk.domains[i] = global[id]
		if id = blk.strs[i]; id != NoStr {
			if global[id] == NoStr {
				global[id] = d.intern(b.local[id])
			}
			blk.strs[i] = global[id]
		}
	}
}

// Sources lists the sources with data, sorted.
func (s *Store) Sources() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.blocks))
	for src := range s.blocks {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// Days lists the measured days for a source, sorted.
func (s *Store) Days(source string) []simtime.Day {
	s.mu.RLock()
	defer s.mu.RUnlock()
	days := s.blocks[source]
	out := make([]simtime.Day, 0, len(days))
	for d := range days {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RowBatch is a read-only columnar view of one (source, day) partition:
// the block's columns exposed directly, decoded once per partition
// instead of once per row. The exported slices are dictionary IDs (or
// packed addresses) — resolve them through the store's Dict only at the
// presentation edge. Callers must not mutate the columns, and must not
// use a batch concurrently with writers committing into the same
// partition.
type RowBatch struct {
	// Domains holds the dict ID of each row's domain.
	Domains []uint32
	// Kinds holds each row's record kind.
	Kinds []Kind
	// Addrs holds IPv4 addresses as big-endian uint32 (for IPv6 kinds an
	// index into Addrs6; 0 for string kinds).
	Addrs []uint32
	// Addrs6 is the IPv6 side table indexed through Addrs.
	Addrs6 [][16]byte
	// Strs holds the dict ID of each row's string value, NoStr for
	// address rows.
	Strs []uint32

	asnOff  []uint32
	asnVals []uint32
}

// Rows returns the number of rows in the batch.
func (b *RowBatch) Rows() int { return len(b.Domains) }

// ASNs returns row i's packed origin-AS view (nil when empty). The slice
// aliases the store's adjacency and must not be retained or mutated.
func (b *RowBatch) ASNs(i int) []uint32 {
	lo := b.asnOff[i]
	hi := uint32(len(b.asnVals))
	if i+1 < len(b.asnOff) {
		hi = b.asnOff[i+1]
	}
	if hi <= lo {
		return nil
	}
	return b.asnVals[lo:hi]
}

// Addr decodes row i's address (the zero Addr for string rows).
func (b *RowBatch) Addr(i int) netip.Addr {
	if b.Strs[i] != NoStr {
		return netip.Addr{}
	}
	if isV6Kind(b.Kinds[i]) {
		return netip.AddrFrom16(b.Addrs6[b.Addrs[i]])
	}
	return u32Addr(b.Addrs[i])
}

// Row materializes row i in presentation form, resolving IDs through
// dict (pass the store's Dict).
func (b *RowBatch) Row(i int, dict *Dict) Row {
	r := Row{
		Domain: dict.Str(b.Domains[i]),
		Kind:   b.Kinds[i],
	}
	if b.Strs[i] != NoStr {
		r.Str = dict.Str(b.Strs[i])
	} else {
		r.Addr = b.Addr(i)
		r.ASNs = b.ASNs(i)
	}
	return r
}

// RowBatch returns the columnar view of one partition, or false when the
// partition holds no rows.
func (s *Store) RowBatch(source string, day simtime.Day) (RowBatch, bool) {
	s.mu.RLock()
	b := s.blocks[source][day]
	s.mu.RUnlock()
	if b == nil {
		return RowBatch{}, false
	}
	return RowBatch{
		Domains: b.domains,
		Kinds:   b.kinds,
		Addrs:   b.addrs,
		Addrs6:  b.addrs6,
		Strs:    b.strs,
		asnOff:  b.asnOff,
		asnVals: b.asnVals,
	}, true
}

// ForEachRow streams one partition's rows in presentation form — the
// compatibility wrapper over RowBatch. The Row passed to fn shares no
// mutable state with the store except the ASNs slice, which must not be
// retained.
func (s *Store) ForEachRow(source string, day simtime.Day, fn func(Row)) {
	b, ok := s.RowBatch(source, day)
	if !ok {
		return
	}
	for i, n := 0, b.Rows(); i < n; i++ {
		fn(b.Row(i, s.dict))
	}
}

// Absorb copies every partition of o into s, re-interning strings
// through s's dictionary. The coordinator's final assembly uses it to
// fold per-partition spool files into one dataset; absorbing the same
// partition twice duplicates its rows, so callers must dedupe at the
// (source, day) level (the coordinator's exactly-once ledger does).
func (s *Store) Absorb(o *Store) {
	for _, src := range o.Sources() {
		for _, day := range o.Days(src) {
			w := s.NewWriter(src, day)
			o.ForEachRow(src, day, func(r Row) {
				switch r.Kind {
				case KindWWWCNAME, KindNS:
					w.AddStr(r.Domain, r.Kind, r.Str)
				default:
					w.AddAddr(r.Domain, r.Kind, r.Addr, r.ASNs)
				}
			})
			w.Commit()
		}
	}
}

// Stats summarises a source for Table 1.
type Stats struct {
	Source     string
	Days       int
	UniqueSLDs int
	DataPoints int64
	// CompressedBytes is the flate-compressed size of the columnar
	// encoding (the Parquet-size analogue).
	CompressedBytes int64
}

// DropDay discards one partition. The full-horizon experiment runner
// streams: it measures a day, folds it into the analysis, accounts its
// statistics, and drops it — the 550-day archive never lives in memory at
// once (the paper used a Hadoop cluster for the same reason).
func (s *Store) DropDay(source string, day simtime.Day) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if days := s.blocks[source]; days != nil {
		if b := days[day]; b != nil {
			mResidentRows.Add(-float64(b.rows()))
		}
		delete(days, day)
		if len(days) == 0 {
			delete(s.blocks, source)
		}
	}
}

// DayStats returns one partition's row count and compressed size, plus
// the distinct interned domain IDs seen (for streaming unique-SLD
// accounting).
func (s *Store) DayStats(source string, day simtime.Day) (rows int, compressed int64, domainIDs []uint32) {
	s.mu.RLock()
	b := s.blocks[source][day]
	s.mu.RUnlock()
	if b == nil {
		return 0, 0, nil
	}
	// A domain's rows sit together, so most rows are settled by the
	// comparison with their predecessor and never reach the map.
	heads := 0
	for i, id := range b.domains {
		if i == 0 || id != b.domains[i-1] {
			heads++
		}
	}
	seen := make(map[uint32]struct{}, heads)
	domainIDs = make([]uint32, 0, heads)
	for i, id := range b.domains {
		if i > 0 && id == b.domains[i-1] {
			continue
		}
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			domainIDs = append(domainIDs, id)
		}
	}
	return b.rows(), b.flateSize(), domainIDs
}

// SourceStats computes Table 1 statistics for one source.
func (s *Store) SourceStats(source string) Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Source: source}
	days := s.blocks[source]
	st.Days = len(days)
	seen := make(map[uint32]bool)
	for _, b := range days {
		st.DataPoints += int64(b.rows())
		for _, id := range b.domains {
			seen[id] = true
		}
		st.CompressedBytes += b.flateSize()
	}
	st.UniqueSLDs = len(seen)
	return st
}

// flateSize is the partition's size in the Parquet-size analogue:
// every column is its own flate stream (a column chunk), the streams are
// compressed concurrently and their lengths summed. An empty column has
// no stream.
func (b *dayBlock) flateSize() int64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	for _, col := range [][]uint32{b.domains, b.addrs, b.strs, b.asnOff, b.asnVals} {
		sizeColumn(&wg, &total, col, 4, binary.LittleEndian.PutUint32)
	}
	sizeColumn(&wg, &total, b.kinds, 1, func(dst []byte, k Kind) { dst[0] = byte(k) })
	sizeColumn(&wg, &total, b.addrs6, 16, func(dst []byte, a [16]byte) { copy(dst, a[:]) })
	wg.Wait()
	return total.Load()
}

// sizeColumn starts a goroutine that adds the compressed length of col,
// serialised width bytes per element by put, to total.
func sizeColumn[T any](wg *sync.WaitGroup, total *atomic.Int64, col []T, width int, put func([]byte, T)) {
	if len(col) == 0 {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var c *columnSizer
		select {
		case c = <-sizers:
		default:
			c = new(columnSizer)
			c.fw, _ = flate.NewWriter(c, flate.BestSpeed) // fails on an invalid level only
		}
		defer func() {
			select {
			case sizers <- c:
			default:
			}
		}()
		c.n = 0
		c.fw.Reset(c)
		for per := len(c.buf) / width; len(col) > 0; {
			n := min(len(col), per)
			for i, v := range col[:n] {
				put(c.buf[i*width:], v)
			}
			_, _ = c.fw.Write(c.buf[:n*width]) // the sink cannot fail
			col = col[n:]
		}
		_ = c.fw.Close()
		total.Add(c.n)
	}()
}

// columnSizer is a flate.Writer over a sink that keeps only the length
// of the output. The writer's state is over a megabyte, hence sizers.
type columnSizer struct {
	n   int64
	fw  *flate.Writer
	buf [4096]byte // serialisation scratch between a column slice and fw
}

// sizers keeps one sizer per column across garbage collections. A
// sync.Pool loses them at each GC (and at random under -race); with Table 1
// sized beside the next day's measurement, that reallocation stalled the
// measurement's resolvers past their timeouts.
var sizers = make(chan *columnSizer, 7)

func (c *columnSizer) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// isV6Kind reports whether the row kind carries an IPv6 address.
func isV6Kind(k Kind) bool { return k == KindApexAAAA || k == KindWWWAAAA }

func addrU32(a netip.Addr) uint32 {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func u32Addr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}
