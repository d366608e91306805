package qorlog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzQoRLogRecover feeds arbitrary bytes to the log's recovery path. The
// contract under test: Open never panics and never fails on content (only on
// real I/O errors), and whatever it salvages is a working log — appendable,
// and clean on the next open (recovery truncates to a record boundary, so a
// second recovery must drop nothing).
func FuzzQoRLogRecover(f *testing.F) {
	// A valid image built by the implementation itself, so mutations start
	// from realistic record framing.
	mkValid := func(appends int) []byte {
		path := filepath.Join(f.TempDir(), "seed.log")
		l, err := Open(path, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < appends; i++ {
			if err := l.Append(testKey(i), testRecord(i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}

	f.Add([]byte{})
	f.Add([]byte(magic))                  // header torn after the magic
	f.Add([]byte(magic + "\x02"))         // unknown version
	f.Add([]byte("not a log at all....")) // foreign file
	f.Add(mkValid(0))                     // bare header
	full := mkValid(3)
	f.Add(full)
	f.Add(full[:len(full)-5]) // torn tail mid-record
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-9] ^= 0x40 // flipped payload bit -> CRC mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open must recover from arbitrary content, got: %v", err)
		}
		st := l.Stats()
		if st.DroppedBytes < 0 || st.Recovered < l.Len() {
			t.Fatalf("inconsistent recovery stats %+v for %d live records", st, l.Len())
		}

		// The salvaged log must accept new records...
		if err := l.Append(testKey(1000), testRecord(1000)); err != nil {
			t.Fatalf("recovered log must be appendable: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// ...and reopen clean: recovery left a well-formed log, so the second
		// open drops nothing and serves the append bit-identically.
		l2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer l2.Close()
		st2 := l2.Stats()
		if st2.DroppedBytes != 0 || st2.Reset {
			t.Fatalf("recovered log must reopen clean, got %+v", st2)
		}
		rec, ok := l2.Get(testKey(1000))
		if !ok || rec != testRecord(1000) {
			t.Fatal("appended record lost or altered across reopen")
		}
	})
}

// FuzzKeyPrefix splits a four-part key anywhere: the prefix form must key
// exactly as KeyOf does, since the logs on disk are addressed by its keys.
func FuzzKeyPrefix(f *testing.F) {
	for _, parts := range keySplitCases() {
		if len(parts) == 4 {
			f.Add(parts[0], parts[1], parts[2], parts[3], uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, fp, file, src, script string, at uint8) {
		parts := []string{fp, file, src, script}
		n := int(at) % (len(parts) + 1)
		want := KeyOf(parts...)
		if got := PrefixOf(parts[:n]...).Key(parts[n:]...); got != want {
			t.Fatalf("split at %d: PrefixOf.Key = %x, want %x", n, got[:8], want[:8])
		}
		if ref := keyOfCopying(parts...); ref != want {
			t.Fatalf("KeyOf = %x, copying reference %x", want[:8], ref[:8])
		}
	})
}
