package qorlog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/resilience"
)

func testRecord(i int) Record {
	return Record{
		Design:     "design",
		Period:     0.85,
		WNS:        -0.25 * float64(i),
		CPS:        0.1 * float64(i),
		TNS:        -1.5 * float64(i),
		Area:       1234.5 + float64(i),
		Leakage:    10.25,
		Cells:      100 + i,
		Seq:        40 + i,
		Violations: i,
	}
}

func testKey(i int) Key {
	return KeyOf("lib-fp", "top.v", "module top; endmodule", "compile", string(rune('a'+i)))
}

func mustOpen(t *testing.T, path string, opts Options) *Log {
	t.Helper()
	l, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}

func TestKeyOfFraming(t *testing.T) {
	// Length framing: moving a boundary between parts must change the key.
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("KeyOf must frame part boundaries")
	}
	if KeyOf("a", "b") == KeyOf("a", "b", "") {
		t.Fatal("KeyOf must distinguish an absent part from an empty one")
	}
	if KeyOf("x", "y") != KeyOf("x", "y") {
		t.Fatal("KeyOf must be deterministic")
	}
}

// keyOfCopying is KeyOf as first written, each part copied whole into the
// digest: the reference the chunked KeyOf must match byte for byte, since
// logs on disk are addressed by its keys.
func keyOfCopying(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func TestKeyOfMatchesCopyingFormulation(t *testing.T) {
	edges := []string{"", "x", strings.Repeat("a", 255), strings.Repeat("b", 256),
		strings.Repeat("c", 257), strings.Repeat("d", 512), "caf\u00e9 \x00\xff"}
	cases := [][]string{nil, {""}, edges}
	for _, e := range edges {
		cases = append(cases, []string{e}, []string{e, e}, []string{"fp", e, "compile"})
	}
	for _, d := range designs.Benchmarks() {
		cases = append(cases, []string{"lib-fp", d.FileName, d.Source, d.BaselineScript()})
	}
	for i, parts := range cases {
		if got, want := KeyOf(parts...), keyOfCopying(parts...); got != want {
			t.Errorf("case %d (%d parts): KeyOf = %x, want %x", i, len(parts), got[:8], want[:8])
		}
	}
}

func TestKeyOfDoesNotCopyParts(t *testing.T) {
	d := designs.AES()
	script := d.BaselineScript()
	allocs := testing.AllocsPerRun(20, func() {
		KeyOf("lib-fp", d.FileName, d.Source, script)
	})
	// The digest and the chunk stay on the stack; copying the parts cost
	// one allocation per part longer than the compiler's 32-byte buffer.
	if allocs != 0 {
		t.Errorf("KeyOf over %d source bytes: %v allocs, want 0", len(d.Source), allocs)
	}
}

// keySplitCases are the part lists the prefix form must key as KeyOf does:
// each benchmark design's (fingerprint, file, source, script), and edge
// parts around the 256-byte chunk KeyOf copies through.
func keySplitCases() [][]string {
	edges := []string{"", strings.Repeat("b", 256), strings.Repeat("c", 257)}
	cases := [][]string{nil, edges}
	for _, e := range edges {
		cases = append(cases, []string{e, "top.v", e, "compile"}, []string{"fp", e, e, e})
	}
	for _, d := range designs.Benchmarks() {
		cases = append(cases, []string{"lib-fp", d.FileName, d.Source, d.BaselineScript()})
	}
	return cases
}

// TestPrefixKeyMatchesKeyOf: split anywhere, PrefixOf(head...).Key(tail...)
// is the key KeyOf and the copying reference give the whole list, also
// when another key was finished from the same prefix first.
func TestPrefixKeyMatchesKeyOf(t *testing.T) {
	for i, parts := range keySplitCases() {
		want := keyOfCopying(parts...)
		if got := KeyOf(parts...); got != want {
			t.Errorf("case %d: KeyOf = %x, want %x", i, got[:8], want[:8])
		}
		for at := 0; at <= len(parts); at++ {
			p := PrefixOf(parts[:at]...)
			p.Key("another script")
			if got := p.Key(parts[at:]...); got != want {
				t.Errorf("case %d split at %d: PrefixOf.Key = %x, want %x", i, at, got[:8], want[:8])
			}
		}
	}
	if got, want := (Prefix{}).Key("a", "b"), KeyOf("a", "b"); got != want {
		t.Errorf("zero Prefix keys %x, want KeyOf's %x", got[:8], want[:8])
	}
}

// TestPrefixKeyAllocs pins what keying one script from a prefix costs: the
// resumed digest, and nothing per part or per byte of the script.
func TestPrefixKeyAllocs(t *testing.T) {
	d := designs.AES()
	p := PrefixOf("lib-fp", d.FileName, d.Source)
	script := d.BaselineScript()
	allocs := testing.AllocsPerRun(20, func() { p.Key(script) })
	if allocs != 1 {
		t.Errorf("Prefix.Key over a %d-byte script: %v allocs, want 1", len(script), allocs)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	l := mustOpen(t, path, Options{})
	const n = 10
	for i := 0; i < n; i++ {
		if err := l.Append(testKey(i), testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2 := mustOpen(t, path, Options{})
	defer l2.Close()
	st := l2.Stats()
	if st.Recovered != n || st.DroppedBytes != 0 || st.Reset {
		t.Fatalf("recovery stats = %+v, want %d clean records", st, n)
	}
	for i := 0; i < n; i++ {
		rec, ok := l2.Get(testKey(i))
		if !ok {
			t.Fatalf("record %d missing after reopen", i)
		}
		if rec != testRecord(i) {
			t.Fatalf("record %d = %+v, want %+v (must be bit-identical)", i, rec, testRecord(i))
		}
	}
}

// appendFrame appends one framed record to a hand-built log image.
func appendFrame(b []byte, key Key, rec Record) []byte {
	payload := encodeRecord(key, rec)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// TestLatestAppendWins: a log written before keys were write-once may hold
// two records for one key, as this hand-built one does. Replay serves the
// later record, as it always has, and a store over the log keeps it.
func TestLatestAppendWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	k := testKey(0)
	data := append([]byte(magic), logVersion)
	data = appendFrame(data, k, testRecord(1))
	data = appendFrame(data, k, testRecord(2))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Recovered != 2 || st.DroppedBytes != 0 {
		t.Fatalf("recovery stats = %+v, want 2 clean records", st)
	}
	s.Put(k, testRecord(3))
	if rec, _ := s.Get(k); rec != testRecord(2) || s.Len() != 1 || fileSize(t, path) != int64(len(data)) {
		t.Fatalf("store serves %+v over %d keys in %d bytes, want the later record over 1 in %d",
			rec, s.Len(), fileSize(t, path), len(data))
	}
}

// TestTornTailRecovery truncates the file at every byte offset inside the
// last record and checks that recovery keeps every fully-written record,
// drops only the torn tail, and leaves the log appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	l := mustOpen(t, ref, Options{})
	for i := 0; i < 3; i++ {
		l.Append(testKey(i), testRecord(i))
	}
	l.Close()
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Find the byte offsets of the three record boundaries by re-encoding.
	offsets := []int64{int64(headerLen)}
	off := int64(headerLen)
	for i := 0; i < 3; i++ {
		off += int64(frameLen + len(encodeRecord(testKey(i), testRecord(i))))
		offsets = append(offsets, off)
	}
	if off != int64(len(full)) {
		t.Fatalf("re-encoded size %d != file size %d", off, len(full))
	}

	for cut := offsets[2] + 1; cut < offsets[3]; cut++ {
		path := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lg := mustOpen(t, path, Options{})
		st := lg.Stats()
		if st.Recovered != 2 {
			t.Fatalf("cut at %d: recovered %d records, want 2", cut, st.Recovered)
		}
		if st.DroppedBytes != cut-offsets[2] {
			t.Fatalf("cut at %d: dropped %d bytes, want %d", cut, st.DroppedBytes, cut-offsets[2])
		}
		if _, ok := lg.Get(testKey(2)); ok {
			t.Fatalf("cut at %d: torn record must not be recovered", cut)
		}
		// The log must be re-appendable after recovery.
		if err := lg.Append(testKey(9), testRecord(9)); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		lg.Close()
		lg2 := mustOpen(t, path, Options{})
		if lg2.Stats().Recovered != 3 || lg2.Stats().DroppedBytes != 0 {
			t.Fatalf("cut at %d: log dirty after recovery+append: %+v", cut, lg2.Stats())
		}
		lg2.Close()
	}
}

// TestCorruptRecordTruncates flips one payload byte of the middle record:
// recovery must keep the records before it and drop it and everything after.
func TestCorruptRecordTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	l := mustOpen(t, path, Options{})
	for i := 0; i < 3; i++ {
		l.Append(testKey(i), testRecord(i))
	}
	l.Close()

	rec0 := int64(headerLen + frameLen + len(encodeRecord(testKey(0), testRecord(0))))
	data, _ := os.ReadFile(path)
	data[rec0+frameLen+5] ^= 0xFF // inside record 1's payload
	os.WriteFile(path, data, 0o644)

	lg := mustOpen(t, path, Options{})
	defer lg.Close()
	st := lg.Stats()
	if st.Recovered != 1 {
		t.Fatalf("recovered %d records, want 1 (corruption must stop the scan)", st.Recovered)
	}
	if st.DroppedBytes != int64(len(data))-rec0 {
		t.Fatalf("dropped %d bytes, want %d", st.DroppedBytes, int64(len(data))-rec0)
	}
	if fileSize(t, path) != rec0 {
		t.Fatalf("file not truncated at the corrupt record")
	}
}

func TestBadHeaderResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	os.WriteFile(path, []byte("this is not a QoR log at all"), 0o644)
	lg := mustOpen(t, path, Options{})
	st := lg.Stats()
	if !st.Reset || st.DroppedBytes != 28 || st.Recovered != 0 {
		t.Fatalf("stats = %+v, want full reset of 28 bytes", st)
	}
	if err := lg.Append(testKey(0), testRecord(0)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	lg.Close()
	lg2 := mustOpen(t, path, Options{})
	defer lg2.Close()
	if lg2.Stats().Recovered != 1 {
		t.Fatal("record appended after reset must survive reopen")
	}
}

// TestShortWriteRewindsAndRetries: a short write tears the tail; Append's
// rewind truncates it so an immediate retry lands cleanly.
func TestShortWriteRewindsAndRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	inj := resilience.NewDiskInjector(
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskShort, Calls: []int{3}})
	l := mustOpen(t, path, Options{Inject: inj})
	if err := l.Append(testKey(0), testRecord(0)); err != nil {
		t.Fatalf("append 0: %v", err)
	}
	err := l.Append(testKey(1), testRecord(1))
	if !resilience.IsRetryableDisk(err) {
		t.Fatalf("short write should classify as retryable, got %v", err)
	}
	if err := l.Append(testKey(1), testRecord(1)); err != nil {
		t.Fatalf("retry after rewind: %v", err)
	}
	l.Close()

	l2 := mustOpen(t, path, Options{})
	defer l2.Close()
	if st := l2.Stats(); st.Recovered != 2 || st.DroppedBytes != 0 {
		t.Fatalf("stats after rewound retry = %+v, want 2 clean records", st)
	}
}

// TestKillDuringAppend is the acceptance scenario: a fault-injected
// mid-write kill leaves a torn record on disk; reopening recovers every
// fully-written record, drops only the torn tail, and serves records
// bit-identical to what was appended.
func TestKillDuringAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "qor.log")
	const live = 5
	// Header is write 1, the five good appends are writes 2-6; kill fires
	// mid-way through the sixth record's write (call 7).
	inj := resilience.NewDiskInjector(
		resilience.DiskFault{Op: resilience.DiskWrite, Mode: resilience.DiskKill, Calls: []int{live + 2}})
	l := mustOpen(t, path, Options{Inject: inj})
	for i := 0; i < live; i++ {
		if err := l.Append(testKey(i), testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	err := l.Append(testKey(live), testRecord(live))
	if !errors.Is(err, resilience.ErrDiskKilled) {
		t.Fatalf("killed append returned %v, want ErrDiskKilled", err)
	}
	if resilience.IsRetryableDisk(err) {
		t.Fatal("a killed writer must classify as fatal, not retryable")
	}
	// The process is dead: no Close, no flush. The rewind could not run
	// either (the injector fails all post-kill ops), so the tail is torn.
	cleanEnd := l.offset

	l2 := mustOpen(t, path, Options{})
	defer l2.Close()
	st := l2.Stats()
	if st.Recovered != live {
		t.Fatalf("recovered %d records, want every fully-written one (%d)", st.Recovered, live)
	}
	if st.DroppedBytes == 0 {
		t.Fatal("the torn record must be dropped and counted")
	}
	if fileSize(t, path) != cleanEnd {
		t.Fatalf("file size %d after recovery, want truncation to %d", fileSize(t, path), cleanEnd)
	}
	for i := 0; i < live; i++ {
		rec, ok := l2.Get(testKey(i))
		if !ok || rec != testRecord(i) {
			t.Fatalf("record %d not bit-identical after crash recovery", i)
		}
	}
	if _, ok := l2.Get(testKey(live)); ok {
		t.Fatal("the torn record must not surface")
	}
	if err := l2.Append(testKey(live), testRecord(live)); err != nil {
		t.Fatalf("append after crash recovery: %v", err)
	}
}
