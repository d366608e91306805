package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/liberty"
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
// the source contents, the top module, and the parameter overrides match —
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
// a compile makes of it before sizing — the structural passes and, with
// -retime, the register moves (see checkpoint.derived, preSizing and
// execState.runPreSizing). The store also owns the storage restores thaw
// into: see workspace.
//
// A snapshot is the design's one front-end artefact: besides the sessions that
// restore it, whoever needs the parsed sources or the linked netlist of a
// design a run has been through reads them from the store, through the
// Snapshot handle the run's Result carries, instead of parsing and elaborating
// the text again.
type CheckpointStore struct {
	cache  *lru.Cache[string, *checkpoint]
	remote BlobCache

	mu   sync.Mutex
	idle []*workspace // parked workspaces, most recently parked last

	reused, allocated, thawsSkipped             atomic.Int64
	derivedHits, derivedMisses, derivedCaptures atomic.Int64
}

// workspace is the storage one restored run works in: the netlist an image
// was thawed into, the Timing that analysed it and the scratch its passes
// worked in. A run that restores takes an idle one — the next thaw overwrites
// the netlist in place and Timing.Reset reuses the analysis buffers, so a warm
// restore allocates next to nothing —
// and whoever ends the run hands it back: Result.Release when the run
// succeeded, RunContext itself when it failed and no Result escapes. A
// Snapshot.Netlist read borrows one the same way for the length of its
// callback.
//
// Only storage the store handed out is ever parked — thawed into or, when the
// run ended before any command read the netlist, exactly as it was acquired.
// A freshly elaborated design is arena-backed and cannot be overwritten in
// place; parking it would only pin a dead netlist.
//
// The idle list is LIFO, so the storage most recently in a CPU cache is the
// next one used, and holds at most GOMAXPROCS workspaces: no more runs than
// that make progress at once, so a deeper list would only keep more
// largest-design-sized netlists alive. (The standard library's per-P object
// pool keeps a primary and a victim copy per P, each grown to the largest
// design — measured, that raised peak RSS by a third; see DESIGN.md.)
type workspace struct {
	home *CheckpointStore
	nl   *netlist.Netlist
	tm   *sta.Timing
	sc   *passScratch
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
// last held, whose scratch then no longer pins the netlist it last worked on.
// It has two callers, Snapshot.Netlist and execState.thaw.
func (ws *workspace) thaw(img *netlist.Image) *netlist.Netlist {
	ws.nl = img.Thaw(ws.nl)
	ws.sc.forget()
	return ws.nl
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

// BlobCache is a second, remote tier of checkpoint storage shared by
// replicas (implemented by the remote-cache client). Keys are the raw
// checkpointKey bytes; values are encodeCheckpoint blobs. Implementations
// must be concurrency-safe and non-blocking under failure: a GetBlob against
// an unreachable tier reports a miss, a PutBlob is dropped — degradation,
// never an error surfaced into the synthesis path.
type BlobCache interface {
	GetBlob(key string) ([]byte, bool)
	PutBlob(key string, blob []byte)
}

// SetRemote attaches a remote blob tier. Local snapshots are pushed to it on
// capture; local misses consult it before falling back to fresh elaboration.
// Must be called before the store is shared across goroutines (wiring time),
// like every other store option. Nil-safe; attaching to a nil store is a
// no-op, and r may be nil to detach.
func (s *CheckpointStore) SetRemote(r BlobCache) {
	if s == nil {
		return
	}
	s.remote = r
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
// synth_checkpoint_restore_thaws_skipped_total and
// synth_checkpoint_derived_{hits,misses,captures}_total. Every workspace
// acquisition — a restore, or a Snapshot.Netlist read — is counted once as
// Reused (a parked workspace) or Allocated (a new, empty one); ThawsSkipped
// counts the restores whose post-link image was never thawed into theirs: the
// compile's result was served instead, or the run ended before any command
// read the netlist. Every first compile of a restored, unedited design is
// counted once as a DerivedHit (the netlist it sizes — after the structural
// passes and, with -retime, the register moves — was served) or a DerivedMiss
// (computed); DerivedCaptures counts those netlists frozen into the store.
// Hits, Misses and Evictions count the post-link snapshot lookups of synthesis
// runs only; reads through a Snapshot handle move none of them.
type CheckpointStats struct {
	Hits, Misses, Evictions                     int64
	Reused, Allocated, ThawsSkipped             int64
	DerivedHits, DerivedMisses, DerivedCaptures int64
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
		ThawsSkipped: s.thawsSkipped.Load(),

		DerivedHits:     s.derivedHits.Load(),
		DerivedMisses:   s.derivedMisses.Load(),
		DerivedCaptures: s.derivedCaptures.Load(),
	}
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
	srcs []srcText           // (file, text) in read order, for serialization

	// The derived level: what compiles make of img before they size it,
	// oldest entry first, at most maxDerived of them. They live and die with
	// this snapshot's LRU entry and never leave the process.
	mu      sync.Mutex
	derived []derivedResult
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
// Both accessors take the single source text and the top module the caller
// wants the front end of, and find nothing unless the snapshot is the
// elaboration of exactly that text under that top (the library and the absence
// of parameter overrides are the caller's to match: the handle comes from a run
// of the same design on the same library). A reader that finds nothing parses
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
// workspace goes back to the store when fn returns, and the next restore
// overwrites it: fn must keep no reference to the netlist, the timing or
// anything reached through them. found is false, and fn not called, when the
// store no longer holds the snapshot; err is fn's.
func (h Snapshot) Netlist(src, top string, fn func(nl *netlist.Netlist, tm *sta.Timing) error) (found bool, err error) {
	cp := h.resolve(src, top)
	if cp == nil {
		return false, nil
	}
	ws := h.store.acquire()
	err = fn(ws.thaw(cp.img), ws.tm)
	h.store.park(ws)
	return true, err
}

// maxDerived bounds the pre-sizing results one snapshot keeps. A key is four
// booleans and a fanout limit, plus — with -retime — the wireload and the
// constraints, which a design keeps over a whole benchmark run; the scripts
// aimed at one design use two or three keys, and past the bound the oldest
// entry goes.
const maxDerived = 4

// derivedResult is the outcome of one preSizing on one snapshot. An entry
// starts unresolved, as a note that it was computed once; the run that
// computes it a second time resolves it. Scripts compiled once per process
// life (a cold start compiles each design under each option set once) thus
// never pay for a freeze or hold an image.
type derivedResult struct {
	pre      preSizing
	resolved bool
	img      *netlist.Image // the resulting netlist; nil when resolved means the passes edit nothing
}

// lookup finds pre's entry. hit reports a resolved one, whose img is then
// the result (nil: the passes leave the netlist as it is). Otherwise the
// caller computes, and capture says whether to resolve the entry with what it
// got: true on the second computation, false on the first, which lookup has
// just noted — unless pre holds a NaN constraint (create_clock -period NaN
// parses) and so equals nothing, itself included: noted, it could never be
// found again and would only push a useful entry out.
func (cp *checkpoint) lookup(pre preSizing) (img *netlist.Image, hit, capture bool) {
	if pre != pre {
		return nil, false, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for i := range cp.derived {
		if e := &cp.derived[i]; e.pre == pre {
			return e.img, e.resolved, !e.resolved
		}
	}
	if len(cp.derived) == maxDerived {
		cp.derived = append(cp.derived[:0], cp.derived[1:]...)
	}
	cp.derived = append(cp.derived, derivedResult{pre: pre})
	return nil, false, false
}

// resolve records img as pre's result and reports whether it did: not when
// a concurrent run got there first or the entry has been pushed out since.
func (cp *checkpoint) resolve(pre preSizing, img *netlist.Image) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for i := range cp.derived {
		if e := &cp.derived[i]; e.pre == pre && !e.resolved {
			e.resolved, e.img = true, img
			return true
		}
	}
	return false
}

// srcText is one source file as the prefix read it. Carried so a checkpoint
// can be serialized: the decoder re-parses the sources in read order, which
// rebuilds file.Modules identically (modules are immutable values of the
// text, and read order decides precedence and the default top).
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
// the default top), the explicit top module, and the sorted parameter
// overrides. Unknown source files make the key underivable (ok false); the
// run then proceeds — and fails — exactly like an uncheckpointed one.
func (s *Session) checkpointKey(files []string, top string) (string, bool) {
	h := sha256.New()
	frame := func(b string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write([]byte(b))
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
	frame("params")
	params := make([]string, 0, len(s.ParamOverrides))
	for k := range s.ParamOverrides {
		params = append(params, k)
	}
	sort.Strings(params)
	for _, k := range params {
		frame(k)
		frame(strconv.FormatInt(s.ParamOverrides[k], 10))
	}
	return string(h.Sum(nil)), true
}

// get returns the snapshot for key, nil on a miss. On a local miss with a
// remote tier attached, the tier is consulted: a blob that decodes cleanly
// against lib (the session's library — the key binds its fingerprint, so a
// remote hit always pairs with an equivalent library) is cached locally and
// served; an undecodable blob is treated as a miss, because remote bytes are
// untrusted input and a fresh elaboration is always available. Nil-safe.
func (s *CheckpointStore) get(key string, lib *liberty.Library) *checkpoint {
	if s == nil {
		return nil
	}
	if cp, ok := s.cache.Get(key); ok {
		return cp
	}
	if s.remote == nil {
		return nil
	}
	blob, ok := s.remote.GetBlob(key)
	if !ok {
		return nil
	}
	cp, err := decodeCheckpoint(blob, lib)
	if err != nil {
		return nil
	}
	s.cache.Add(key, cp)
	return cp
}

// put stores a snapshot locally and, when a remote tier is attached, pushes
// its serialized form so sibling replicas skip the same elaboration. The
// caller must hand over a snapshot it will never mutate (RunContext freezes
// the live netlist at capture time). Nil-safe.
func (s *CheckpointStore) put(key string, cp *checkpoint) {
	if s == nil {
		return
	}
	s.cache.Add(key, cp)
	if s.remote != nil {
		s.remote.PutBlob(key, encodeCheckpoint(cp))
	}
}
