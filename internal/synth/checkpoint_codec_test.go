package synth

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
)

// memBlobCache is an in-memory BlobCache standing in for the remote tier.
type memBlobCache struct {
	mu    sync.Mutex
	blobs map[string][]byte
	puts  int
	gets  int
}

func newMemBlobCache() *memBlobCache {
	return &memBlobCache{blobs: make(map[string][]byte)}
}

func (m *memBlobCache) GetBlob(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	b, ok := m.blobs[key]
	return b, ok
}

func (m *memBlobCache) PutBlob(key string, blob []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	m.blobs[key] = append([]byte(nil), blob...)
}

// TestCheckpointCodecRoundTrip: encode→decode of a captured snapshot
// preserves everything a restore consumes, and re-encoding the decoded
// snapshot is byte-identical (content-addressability across replicas).
func TestCheckpointCodecRoundTrip(t *testing.T) {
	store := NewCheckpointStore(4)
	if _, err := newCheckpointedSession(store).Run(goodScript); err != nil {
		t.Fatal(err)
	}
	key, ok := newTestSession().checkpointKey([]string{"tiny.v"}, "tiny")
	if !ok {
		t.Fatal("key underivable")
	}
	cp := store.get(key, newTestSession(), []string{"tiny.v"}, "tiny")
	if cp == nil {
		t.Fatal("run did not store a snapshot")
	}

	blob := encodeCheckpoint(cp)
	got, err := decodeCheckpoint(blob, liberty.Nangate45())
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if got.top != cp.top {
		t.Errorf("top = %q, want %q", got.top, cp.top)
	}
	if len(got.log) != len(cp.log) {
		t.Fatalf("log lines = %d, want %d", len(got.log), len(cp.log))
	}
	for i := range cp.log {
		if got.log[i] != cp.log[i] {
			t.Errorf("log line %d = %q, want %q", i, got.log[i], cp.log[i])
		}
	}
	if len(got.file.Modules) != len(cp.file.Modules) {
		t.Fatalf("module count = %d, want %d", len(got.file.Modules), len(cp.file.Modules))
	}
	for i := range cp.file.Modules {
		if got.file.Modules[i].Name != cp.file.Modules[i].Name {
			t.Errorf("module %d = %q, want %q", i, got.file.Modules[i].Name, cp.file.Modules[i].Name)
		}
	}
	if !bytes.Equal(encodeCheckpoint(got), blob) {
		t.Error("re-encode after decode is not byte-identical")
	}
}

// TestCheckpointRemoteRestoreBitIdentical: a replica whose local store is
// empty but whose remote tier holds another replica's checkpoint produces
// byte-identical output to an uncheckpointed fresh run — the acceptance bar
// for sharing elaboration state across processes.
func TestCheckpointRemoteRestoreBitIdentical(t *testing.T) {
	script := goodScript + "write\n"
	fresh, err := newTestSession().Run(script)
	if err != nil {
		t.Fatal(err)
	}
	want := runJSON(t, fresh)

	// Replica A captures; its store pushes the blob to the shared tier.
	remote := newMemBlobCache()
	storeA := NewCheckpointStore(4)
	storeA.SetRemote(remote)
	outA, err := newCheckpointedSession(storeA).Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if remote.puts != 1 {
		t.Fatalf("capture pushed %d blobs to the remote tier, want 1", remote.puts)
	}
	if got := runJSON(t, outA); got != want {
		t.Errorf("capturing run differs from fresh run")
	}

	// Replica B has a cold local store and restores via the remote tier.
	storeB := NewCheckpointStore(4)
	storeB.SetRemote(remote)
	outB, err := newCheckpointedSession(storeB).Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if got := runJSON(t, outB); got != want {
		t.Errorf("remote-restored run differs from fresh run:\n%s\nvs\n%s", runJSON(t, outB), want)
	}
	if st := storeB.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("replica B local stats = %+v, want pure local miss served remotely", st)
	}
	if remote.puts != 1 {
		t.Errorf("remote restore re-uploaded the blob (%d puts)", remote.puts)
	}

	// The remote hit is now cached locally: a second run on B stays local.
	gets := remote.gets
	if _, err := newCheckpointedSession(storeB).Run(script); err != nil {
		t.Fatal(err)
	}
	if remote.gets != gets {
		t.Errorf("second run on B consulted the remote tier again")
	}
	if st := storeB.Stats(); st.Hits != 1 {
		t.Errorf("second run on B did not hit locally: %+v", st)
	}
}

// TestCheckpointCodecRejectsCorruption: hostile or damaged blobs from the
// network fail decode cleanly; the store then treats them as misses.
func TestCheckpointCodecRejectsCorruption(t *testing.T) {
	store := NewCheckpointStore(4)
	if _, err := newCheckpointedSession(store).Run(goodScript); err != nil {
		t.Fatal(err)
	}
	key, _ := newTestSession().checkpointKey([]string{"tiny.v"}, "tiny")
	lib := liberty.Nangate45()
	cp := store.get(key, newTestSession(), []string{"tiny.v"}, "tiny")
	blob := encodeCheckpoint(cp)

	for n := 0; n < len(blob); n += 7 {
		if _, err := decodeCheckpoint(blob[:n], lib); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	if _, err := decodeCheckpoint(append(append([]byte{}, blob...), 0), lib); err == nil {
		t.Fatal("trailing byte decoded successfully")
	}

	// A corrupt remote blob degrades to a miss and a fresh elaboration.
	remote := newMemBlobCache()
	remote.blobs[key] = blob[:len(blob)/2]
	cold := NewCheckpointStore(4)
	cold.SetRemote(remote)
	out, err := newCheckpointedSession(cold).Run(goodScript + "write\n")
	if err != nil {
		t.Fatalf("corrupt remote blob broke the run: %v", err)
	}
	fresh, err := newTestSession().Run(goodScript + "write\n")
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, out) != runJSON(t, fresh) {
		t.Error("run with corrupt remote blob differs from fresh run")
	}
}

// TestCheckpointRemoteBlobBoundToKey: a tier that serves one design's blob
// under another design's key restores neither. Each replica run decodes a
// blob that is sound but not the elaboration its key names, counts a miss,
// elaborates afresh — byte-identical to a storeless run — and its capture
// puts the right blob back under the key.
func TestCheckpointRemoteBlobBoundToKey(t *testing.T) {
	scripts := map[string]string{
		"tiny.v": "read_verilog tiny.v\ncurrent_design tiny\nlink\ncreate_clock -period 2.5 clk\ncompile\nreport_qor\nwrite\n",
		// No current_design: the key's top is empty, the blob's the default.
		"unb.v": "read_verilog unb.v\nlink\ncreate_clock -period 1.0 clk\ncompile_ultra -retime\nreport_qor\nwrite\n",
	}
	session := func(store *CheckpointStore) *Session {
		s := newCheckpointedSession(store)
		s.AddSource("unb.v", unbalancedPipeSrc)
		return s
	}
	want := map[string]string{}
	keys := map[string]string{}
	for file, script := range scripts {
		res, err := session(nil).Run(script)
		if err != nil {
			t.Fatal(err)
		}
		want[file] = runJSON(t, res)
		cmds, err := ParseScript(script)
		if err != nil {
			t.Fatal(err)
		}
		_, files, top, _ := linkPrefix(cmds)
		keys[file], _ = session(nil).checkpointKey(files, top)
	}

	remote := newMemBlobCache()
	captured := NewCheckpointStore(4)
	captured.SetRemote(remote)
	for _, script := range scripts {
		if _, err := session(captured).Run(script); err != nil {
			t.Fatal(err)
		}
	}
	right := map[string][]byte{}
	for file, key := range keys {
		right[file] = remote.blobs[key]
	}
	remote.blobs[keys["tiny.v"]], remote.blobs[keys["unb.v"]] = right["unb.v"], right["tiny.v"]

	cold := NewCheckpointStore(4)
	cold.SetRemote(remote)
	for file, script := range scripts {
		res, err := session(cold).Run(script)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if got := runJSON(t, res); got != want[file] {
			t.Errorf("%s: run over a swapped remote blob differs from a storeless run", file)
		}
		if !bytes.Equal(remote.blobs[keys[file]], right[file]) {
			t.Errorf("%s: the capture did not put the right blob back under its key", file)
		}
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != 2 || cold.cache.Len() != 2 {
		t.Errorf("cold store stats = %+v with %d entries, want two misses, both captured", st, cold.cache.Len())
	}
}

// encodeCheckpointV1 writes cp the way version 1 did: the netlist in the
// object-walking encoding, length-framed, after the same header.
func encodeCheckpointV1(cp *checkpoint) []byte {
	head := encodeCheckpoint(cp)
	head = head[:len(head)-len(cp.img.AppendBinary(nil))]
	head[len(ckptMagic)] = 1
	nb := netlist.Encode(cp.img.Thaw(nil))
	return append(binary.AppendUvarint(head, uint64(len(nb))), nb...)
}

// TestCheckpointV1BlobIsReplaced: a blob left in the tier by the previous
// version is a miss, and the next capture replaces it with the current form.
func TestCheckpointV1BlobIsReplaced(t *testing.T) {
	script := goodScript + "write\n"
	fresh, err := newTestSession().Run(script)
	if err != nil {
		t.Fatal(err)
	}
	store := NewCheckpointStore(4)
	if _, err := newCheckpointedSession(store).Run(script); err != nil {
		t.Fatal(err)
	}
	key, _ := newTestSession().checkpointKey([]string{"tiny.v"}, "tiny")
	cp := store.get(key, newTestSession(), []string{"tiny.v"}, "tiny")

	remote := newMemBlobCache()
	remote.blobs[key] = encodeCheckpointV1(cp)
	cold := NewCheckpointStore(4)
	cold.SetRemote(remote)
	out, err := newCheckpointedSession(cold).Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, out) != runJSON(t, fresh) {
		t.Error("run over a v1 remote blob differs from a fresh run")
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("cold store stats = %+v, want one miss", st)
	}
	if remote.puts != 1 || !bytes.Equal(remote.blobs[key], encodeCheckpoint(cp)) {
		t.Errorf("the capture did not replace the v1 blob (%d puts)", remote.puts)
	}
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to decodeCheckpoint, what a
// remote blob goes through. Whatever decodes must thaw to a netlist that
// passes Check; nothing may panic. The seeds, also checked in under
// testdata/fuzz, are a real blob, a truncation of it and the bare magic.
func FuzzDecodeCheckpoint(f *testing.F) {
	store := NewCheckpointStore(4)
	if _, err := newCheckpointedSession(store).Run(goodScript); err != nil {
		f.Fatal(err)
	}
	key, _ := newTestSession().checkpointKey([]string{"tiny.v"}, "tiny")
	blob := encodeCheckpoint(store.get(key, newTestSession(), []string{"tiny.v"}, "tiny"))
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(ckptMagic))
	lib := liberty.Nangate45()
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data, lib)
		if err != nil {
			return
		}
		if err := cp.img.Thaw(nil).Check(); err != nil {
			t.Fatalf("decoded checkpoint thaws to an inconsistent netlist: %v", err)
		}
	})
}
