package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/verilog"
)

// CheckpointStore is a bounded, concurrency-safe, content-addressed cache of
// post-link compile state — the in-memory analogue of dc_shell's .ddc
// checkpoints. Every synthesis run whose script starts with the canonical
// elaboration prefix
//
//	read_verilog <files...>
//	[current_design <top>]
//	link
//
// produces identical state up to and including link whenever the library,
// the source contents and the top module match —
// only the post-link optimization commands differ across Pass@k samples,
// pipeline variants, and serving requests. The store memoizes that state
// under a collision-resistant content hash (see checkpointKey) so repeat
// runs skip parsing and elaboration entirely.
//
// Snapshots are immutable once stored: the netlist is kept frozen, as a
// netlist.Image, and a restore thaws it for the session (with a fresh
// module-slice header), so concurrent sessions never share mutable state and
// a session mutating its restored design can never corrupt the snapshot.
// Eviction is LRU with a bounded entry count.
//
// Beside each snapshot the store keeps a second, derived level: the netlists
// a first compile leaves of it, sized and recovered (see checkpoint.derived,
// compileKey and execState.compile). The store also owns the storage
// restores thaw into: see workspace.
//
// A snapshot is the design's one front-end artefact: besides the sessions that
// restore it, whoever needs the parsed sources or the linked netlist of a
// design a run has been through reads them from the store, through the
// Snapshot handle the run's Result carries, instead of parsing and elaborating
// the text again — and whatever is computed from them once per design (the
// structural analysis, the graph embedding) is kept on the snapshot too (see
// Snapshot.Keep), so the store alone decides how long a design's artefacts
// live.
type CheckpointStore struct {
	cache *lru.Cache[string, *checkpoint]

	mu   sync.Mutex
	idle []*workspace // parked workspaces, most recently parked last

	reused, allocated, thaws, thawsSkipped      atomic.Int64
	derivedHits, derivedMisses, derivedCaptures atomic.Int64
	reportsServed                               atomic.Int64
}

// workspace is the storage a run works in: the netlist an image was thawed
// into, the Timing that analysed it and the scratch its passes worked in.
// Every run through the store's link prefix takes an idle one, and so does
// every Snapshot.Netlist read, for the length of its callback. A run that
// restores thaws over the netlist in place and Timing.Reset reuses the
// analysis buffers, so a warm restore allocates next to nothing. A run that
// captures (a checkpoint miss) elaborates a netlist of its own and borrows
// only the Timing and the scratch, whose buffers then need not grow from
// nothing for the design's first analysis. A run hands its workspace back
// when it ends with no design to return — every Evaluate and every failed
// run; a successful RunContext leaves it to the garbage collector with its
// Result.Design.
//
// Parked, a workspace pins only storage the store handed out: its netlist
// (thawed into or, when the run never read it, exactly as it was acquired)
// and pointers into it. A freshly elaborated netlist is arena-backed and
// cannot be thawed over; a capturing run's workspace drops its Timing's and
// scratch's pointers into that netlist before it is parked (see release),
// or one parked workspace a design would pin a dead netlist.
//
// thawed is the image nl is an unedited thaw of, if a Snapshot.Netlist read
// left it so: the next thaw of that image into this workspace is no thaw at
// all. It says nothing about tm, which the read may have analysed nl in.
//
// The idle list is LIFO, so the storage most recently in a CPU cache is the
// next one used — and a restore that follows its design's snapshot read
// takes the workspace the read just left — and holds at most GOMAXPROCS
// workspaces: no more runs than that make progress at once, so a deeper list
// would only keep more largest-design-sized netlists alive. (The standard
// library's per-P object pool keeps a primary and a victim copy per P, each
// grown to the largest design — measured, that raised peak RSS by a third;
// see DESIGN.md.)
type workspace struct {
	home   *CheckpointStore
	nl     *netlist.Netlist
	tm     *sta.Timing
	sc     *passScratch
	thawed *netlist.Image
}

// acquire hands out the most recently parked workspace, or one with nothing
// in it yet when none is idle.
func (s *CheckpointStore) acquire() *workspace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.idle); n > 0 {
		ws := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		s.reused.Add(1)
		return ws
	}
	s.allocated.Add(1)
	return &workspace{home: s, tm: new(sta.Timing), sc: new(passScratch)}
}

// thaw is every reader's way to a frozen netlist: img thawed over whatever ws
// last held, whose scratch then no longer pins the netlist it last worked on —
// or, when ws holds an unedited thaw of img already, that netlist as it is.
// Either way the caller may edit what it gets: ws holds no unedited thaw
// afterwards until a Snapshot.Netlist read says so. It has two callers,
// Snapshot.Netlist and execState.thaw.
func (ws *workspace) thaw(img *netlist.Image) *netlist.Netlist {
	if ws.thawed != img {
		ws.home.thaws.Add(1)
		ws.nl = img.Thaw(ws.nl)
	}
	ws.thawed = nil
	ws.sc.forget()
	return ws.nl
}

// release drops the pointers ws's Timing and scratch hold into the netlist a
// capturing run elaborated, keeping their buffers.
func (ws *workspace) release() {
	ws.tm.Reset(nil, nil, sta.Constraints{})
	ws.sc.forget()
}

// park takes a workspace back. The caller must hold the only reference to
// its netlist and Timing. Over the bound, the workspace is left to the
// garbage collector.
func (s *CheckpointStore) park(ws *workspace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.idle) < runtime.GOMAXPROCS(0) {
		s.idle = append(s.idle, ws)
	}
}

// DefaultCheckpointCap is the store capacity used when NewCheckpointStore is
// given a non-positive bound: comfortably above the benchmark-corpus design
// count, small enough that a few dozen retained netlists stay cheap.
const DefaultCheckpointCap = 32

// NewCheckpointStore creates a store holding at most capacity snapshots
// (capacity <= 0 selects DefaultCheckpointCap).
func NewCheckpointStore(capacity int) *CheckpointStore {
	if capacity <= 0 {
		capacity = DefaultCheckpointCap
	}
	return &CheckpointStore{cache: lru.New[string, *checkpoint](capacity)}
}

// CheckpointStats are the store's lifetime counters, exposed by the serving
// daemon as synth_checkpoint_{hits,misses,evictions}_total,
// synth_checkpoint_workspace_{reuses,allocs}_total,
// synth_checkpoint_thaws_total,
// synth_checkpoint_restore_thaws_skipped_total,
// synth_checkpoint_derived_{hits,misses,captures}_total and
// synth_checkpoint_derived_reports_served_total. Every workspace
// acquisition — by a run through the link prefix, restoring or capturing,
// or by a Snapshot.Netlist read — is counted once as Reused (a parked
// workspace) or Allocated (a new, empty one); Thaws counts every image
// thawed into a workspace, the post-link one or a served compile's, by a run
// or a Snapshot.Netlist read, and not the restores that found the unedited
// thaw a read left in their workspace and used it as it was; ThawsSkipped
// counts the restores whose post-link image was never thawed into theirs: the
// compile's result was served instead, or the run ended before any command
// read the netlist. Every first compile of a restored, unedited design is
// counted once as a DerivedHit (the compiled netlist was served) or a
// DerivedMiss (compiled); DerivedCaptures counts those netlists frozen into
// the store, and DerivedReportsServed the report texts served from a derived
// result instead of computed (see derivedTail). Hits, Misses and Evictions
// count the post-link snapshot lookups of synthesis runs only; reads through
// a Snapshot handle move none of them.
type CheckpointStats struct {
	Hits, Misses, Evictions                     int64
	Reused, Allocated, Thaws, ThawsSkipped      int64
	DerivedHits, DerivedMisses, DerivedCaptures int64
	DerivedReportsServed                        int64
}

// Stats returns the current counters. Nil-safe: a nil store reports zeros.
func (s *CheckpointStore) Stats() CheckpointStats {
	if s == nil {
		return CheckpointStats{}
	}
	return CheckpointStats{
		Hits:      s.cache.Hits(),
		Misses:    s.cache.Misses(),
		Evictions: s.cache.Evictions(),

		Reused:       s.reused.Load(),
		Allocated:    s.allocated.Load(),
		Thaws:        s.thaws.Load(),
		ThawsSkipped: s.thawsSkipped.Load(),

		DerivedHits:     s.derivedHits.Load(),
		DerivedMisses:   s.derivedMisses.Load(),
		DerivedCaptures: s.derivedCaptures.Load(),

		DerivedReportsServed: s.reportsServed.Load(),
	}
}

// DerivedBytes is the bytes the derived levels of the snapshots s holds keep
// now — the column bytes (netlist.Image.Bytes) of their images and the text
// of their kept reports — exposed by the serving daemon as the
// synth_checkpoint_derived_bytes gauge. Unlike Stats it walks
// every snapshot, under the LRU's lock. Nil-safe: a nil store holds none.
func (s *CheckpointStore) DerivedBytes() int64 {
	if s == nil {
		return 0
	}
	var n int64
	s.cache.Range(func(_ string, cp *checkpoint) { n += cp.derivedBytes() })
	return n
}

// Len returns the number of snapshots currently held.
func (s *CheckpointStore) Len() int {
	if s == nil {
		return 0
	}
	return s.cache.Len()
}

// checkpoint is one immutable post-link snapshot, and what has been derived
// from it.
type checkpoint struct {
	img  *netlist.Image      // pristine post-link netlist, frozen; restores thaw it
	file *verilog.SourceFile // parsed sources (modules shared read-only)
	top  string              // resolved top module
	log  []string            // transcript lines the prefix produced
	srcs []srcText           // (file, text) in read order

	// The derived level: what first compiles make of img, oldest entry
	// first, at most maxDerived of them, and the values Snapshot.Keep
	// keeps. They live and die with this snapshot's LRU entry.
	mu      sync.Mutex
	derived []derivedResult
	kept    map[KeepKey]any
}

// sourceFile returns the parsed sources under a slice header of the caller's
// own: the modules are immutable and shared, the header is not — a session
// that reads further files appends to it.
func (cp *checkpoint) sourceFile() *verilog.SourceFile {
	return &verilog.SourceFile{Modules: append([]*verilog.Module(nil), cp.file.Modules...)}
}

// Snapshot names one post-link snapshot in a CheckpointStore — the store and
// the content key, never the image: the store stays the only owner of what it
// caches, so a handle pins nothing, and a snapshot evicted since reads as
// absent. Every Result of a run that went through the store's link prefix
// carries one, whether the run restored the snapshot or captured it. The zero
// Snapshot names nothing.
//
// Every accessor takes the single source text and the top module the caller
// wants the front end of, and finds nothing unless the snapshot is the
// elaboration of exactly that text under that top (the library is the caller's
// to match: the handle comes from a run of the same design on the same
// library). A reader that finds nothing parses
// and elaborates for itself, with the same result — restored and fresh state
// are indistinguishable.
type Snapshot struct {
	store *CheckpointStore
	key   string
}

func (h Snapshot) resolve(src, top string) *checkpoint {
	if h.store == nil {
		return nil
	}
	cp, ok := h.store.cache.Peek(h.key)
	if !ok || cp.top != top || len(cp.srcs) != 1 || cp.srcs[0].Text != src {
		return nil
	}
	return cp
}

// File returns the snapshot's parsed sources: shared, immutable modules under
// a slice header of the caller's own.
func (h Snapshot) File(src, top string) (*verilog.SourceFile, bool) {
	cp := h.resolve(src, top)
	if cp == nil {
		return nil, false
	}
	return cp.sourceFile(), true
}

// Netlist lends fn the snapshot's linked netlist, thawed into one of the
// store's own workspaces exactly as a restoring session would get it, and that
// workspace's Timing, which holds no analysis of it yet (Reset it). The
// workspace goes back to the store when fn returns: fn must keep no reference
// to the netlist, the timing or anything reached through them, and must not
// edit the netlist. If it leaves the netlist's edit generations as the thaw
// made them, the store takes the netlist for an unedited thaw and the next
// restore that gets the workspace uses it without thawing the image again;
// an edit that moves no generation (set_dont_touch's Fixed flag) would reach
// that restore. found is false, and fn not called, when the store no longer
// holds the snapshot; err is fn's.
func (h Snapshot) Netlist(src, top string, fn func(nl *netlist.Netlist, tm *sta.Timing) error) (found bool, err error) {
	cp := h.resolve(src, top)
	if cp == nil {
		return false, nil
	}
	ws := h.store.acquire()
	nl := ws.thaw(cp.img)
	gen, topoGen := nl.Gen(), nl.TopoGen()
	err = fn(nl, ws.tm)
	if nl.Gen() == gen && nl.TopoGen() == topoGen {
		ws.thawed = cp.img
	}
	h.store.park(ws)
	return true, err
}

// KeepKey names a value kept on a snapshot: Owner is a pointer to what the
// value was computed under, and N tells apart the values one owner keeps.
type KeepKey struct {
	Owner any
	N     uint64
}

// Keep returns the value kept on the snapshot under key (hit true), or
// computes it and, unless compute fails or the handle finds nothing (see
// File), keeps it for as long as the store holds the snapshot. A kept value
// is shared: the caller must not mutate it.
func (h Snapshot) Keep(src, top string, key KeepKey, compute func() (any, error)) (v any, hit bool, err error) {
	cp := h.resolve(src, top)
	if cp != nil {
		cp.mu.Lock()
		v, hit = cp.kept[key]
		cp.mu.Unlock()
		if hit {
			return v, true, nil
		}
	}
	if v, err = compute(); cp == nil || err != nil {
		return v, false, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.kept == nil {
		cp.kept = make(map[KeepKey]any)
	}
	cp.kept[key] = v
	return v, false, nil
}

// maxDerived bounds the compile results one snapshot keeps. A key is the
// compile's options, its fanout limit, its wireload and its constraints; the
// paper's loop holds the last two fixed for a design (§V), the scripts aimed
// at one design use three or four option sets, and past the bound the oldest
// entry goes.
const maxDerived = 4

// derivedResult is the outcome of one compile on one snapshot. An entry
// starts unresolved, as a note that it was computed once; the run that
// computes it a second time resolves it. Scripts compiled once per process
// life (a cold start compiles each design under each option set once) thus
// never pay for a freeze or hold an image.
type derivedResult struct {
	key  compileKey
	img  *netlist.Image // the compiled netlist; nil when resolved means the compile edits nothing
	tail *derivedTail   // nil until resolved
}

// derivedTail is what the runs served by one resolved entry read off its
// result before anything changed it: the compile line's QoR and the text of
// each read-only report, under its readKey. Every one is a function of the
// snapshot, the compile key and the readKey, so a later run reads them here
// instead of thawing the image and analysing it. The QoR is fixed when the
// entry resolves; a report is recorded by the first run that computes it,
// at most maxTailReports of them, the oldest going first.
type derivedTail struct {
	qor QoR

	mu      sync.Mutex
	reports []tailReport
}

type tailReport struct {
	key  readKey
	text string
}

// readKey is one read-only report on a derived result: the command and every
// input it reads that the compile key does not hold — report_timing's path
// count (parsed: the command line itself may name a variable), and the area
// limit report_constraint checks, which compile does not read.
type readKey struct {
	cmd      string
	maxPaths int
	maxArea  float64
}

// maxTailReports bounds the report texts one derived result keeps. The
// scripts the paper's loop generates end with the same three reports
// (llm.SpliceScript), so a handful covers them; a script that walks an
// option's values pushes out only its own.
const maxTailReports = 8

// report returns key's text, if t holds it. Nil-safe.
func (t *derivedTail) report(key readKey) (string, bool) {
	if t == nil {
		return "", false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.reports {
		if r.key == key {
			return r.text, true
		}
	}
	return "", false
}

// record keeps text as key's report, unless t holds one already or key holds
// a NaN area limit (set_max_area NaN parses) and so could never be found.
// Nil-safe.
func (t *derivedTail) record(key readKey, text string) {
	if t == nil || key != key {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.reports {
		if r.key == key {
			return
		}
	}
	if len(t.reports) == maxTailReports {
		t.reports = append(t.reports[:0], t.reports[1:]...)
	}
	t.reports = append(t.reports, tailReport{key, text})
}

// bytes is the text t keeps.
func (t *derivedTail) bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, r := range t.reports {
		n += int64(len(r.text))
	}
	return n
}

// lookup finds key's entry. A resolved one is the result: hit is true and e
// holds it (e.img nil: the compile leaves the netlist as it is). Otherwise
// the caller computes, and capture says whether to resolve the entry with
// what it got: true on the second computation, false on the first, which
// lookup has just noted — unless key holds a NaN constraint (create_clock
// -period NaN parses) and so equals nothing, itself included: noted, it could
// never be found again and would only push a useful entry out.
func (cp *checkpoint) lookup(key compileKey) (e derivedResult, hit, capture bool) {
	if key != key {
		return derivedResult{}, false, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, e := range cp.derived {
		if e.key == key {
			return e, e.tail != nil, e.tail == nil
		}
	}
	if len(cp.derived) == maxDerived {
		cp.derived = append(cp.derived[:0], cp.derived[1:]...)
	}
	cp.derived = append(cp.derived, derivedResult{key: key})
	return derivedResult{}, false, false
}

// resolve records img and the compile line's QoR as key's result and returns
// the entry's tail, for the resolving run to record its reports in: nil when
// a concurrent run got there first or the entry has been pushed out since.
func (cp *checkpoint) resolve(key compileKey, img *netlist.Image, q QoR) *derivedTail {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for i := range cp.derived {
		if e := &cp.derived[i]; e.key == key && e.tail == nil {
			e.img, e.tail = img, &derivedTail{qor: q}
			return e.tail
		}
	}
	return nil
}

// derivedBytes is the column bytes of the images cp's derived level holds
// and the text of their kept reports.
func (cp *checkpoint) derivedBytes() int64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var n int64
	for _, e := range cp.derived {
		if e.img != nil {
			n += int64(e.img.Bytes())
		}
		if e.tail != nil {
			n += e.tail.bytes()
		}
	}
	return n
}

// srcText is one source file as the prefix read it. Snapshot's accessors
// match a caller's source text against it.
type srcText struct {
	Name, Text string
}

// linkPrefix recognizes the canonical elaboration prefix of a parsed script:
// one or more read_verilog commands, at most one current_design, then link.
// It returns the index of the link command, the files read (in script
// order), and the explicit top ("" when current_design is omitted and the
// default-top rule applies). ok is false when the script starts any other
// way — set_wire_load_model before link, an implicit link via compile, a
// re-read after link — and the session falls back to a fresh elaboration.
func linkPrefix(cmds []Cmd) (end int, files []string, top string, ok bool) {
	i := 0
	for i < len(cmds) && cmds[i].Name == "read_verilog" {
		files = append(files, cmds[i].Args...)
		i++
	}
	if len(files) == 0 {
		return 0, nil, "", false
	}
	if i < len(cmds) && cmds[i].Name == "current_design" {
		top = cmds[i].Args[0]
		i++
	}
	if i >= len(cmds) || cmds[i].Name != "link" {
		return 0, nil, "", false
	}
	return i, files, top, true
}

// checkpointKey derives the content address of the elaboration state the
// prefix produces. Every input that shapes the post-link netlist feeds the
// hash with length framing (so no two distinct input sequences share a byte
// stream): the library identity, the sorted (file, content) source set plus
// the script-order file sequence (read order decides module precedence and
// the default top), and the explicit top module. Unknown source files make the key underivable (ok false); the
// run then proceeds — and fails — exactly like an uncheckpointed one. The
// library goes in as its stored fingerprint, 32 bytes; what a run hashes is
// mostly its sources, every run.
func (s *Session) checkpointKey(files []string, top string) (string, bool) {
	h := sha256.New()
	// Strings go in through chunk rather than as []byte(b), which would copy
	// each source whole.
	var chunk [256]byte
	frame := func(b string) {
		binary.LittleEndian.PutUint64(chunk[:8], uint64(len(b)))
		h.Write(chunk[:8])
		for len(b) > 0 {
			n := copy(chunk[:], b)
			h.Write(chunk[:n])
			b = b[n:]
		}
	}
	frame("lib")
	frame(s.Lib.Fingerprint())
	frame("order")
	for _, f := range files {
		frame(f)
	}
	sorted := append([]string(nil), files...)
	sort.Strings(sorted)
	frame("sources")
	for _, f := range sorted {
		src, ok := s.Sources[f]
		if !ok {
			return "", false
		}
		frame(f)
		frame(src)
	}
	frame("top")
	frame(top)
	return string(h.Sum(nil)), true
}

// get returns the snapshot for key, nil on a miss. Nil-safe.
func (s *CheckpointStore) get(key string) *checkpoint {
	if s == nil {
		return nil
	}
	cp, _ := s.cache.Get(key)
	return cp
}

// put stores a snapshot. The caller must hand over a snapshot it will never
// mutate (RunContext freezes the live netlist at capture time). Nil-safe.
func (s *CheckpointStore) put(key string, cp *checkpoint) {
	if s == nil {
		return
	}
	s.cache.Add(key, cp)
}
