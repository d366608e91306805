package synthrag

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/liberty"
)

// shippedFingerprint is the fingerprint of the database chatlsd builds (seed
// 20250706, 40 epochs, the 21-graph corpus), recorded with the serial
// trainer that summed each graph's gradient straight into one accumulator.
// Training now runs per-graph on workers and sums the shares in batch order;
// any change to that order, or to a kernel's, shows up here as a new value.
const shippedFingerprint = 0x70815bc9d1a32234

// fingerprint hashes the trained model's weights (as raw float bits) and
// every strategy record, in design-name order.
func fingerprint(db *Database) uint64 {
	h := fnv.New64a()
	m := db.Mentor.Model
	var buf [8]byte
	for _, w := range [][]float64{m.WSelf1.Data, m.WNb1.Data, m.B1, m.WSelf2.Data, m.WNb2.Data, m.B2} {
		for _, v := range w {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	names := make([]string, 0, len(db.Strategies))
	for n := range db.Strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%#v\n", *db.Strategies[n])
	}
	return h.Sum64()
}

// TestShippedBuildFingerprint pins the shipped build, bit for bit, for
// serial and parallel training.
func TestShippedBuildFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("three full database builds")
	}
	lib := liberty.Nangate45()
	for _, workers := range []int{1, 2, 8} {
		db, err := Build(BuildConfig{Seed: 20250706, TrainEpochs: 40, Lib: lib, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(db); got != shippedFingerprint {
			t.Errorf("workers=%d: fingerprint %#x, want %#x", workers, got, shippedFingerprint)
		}
	}
}
