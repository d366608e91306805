package vecindex

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlatExactSearch(t *testing.T) {
	ix := NewFlat(3, Cosine)
	vecs := map[string][]float64{
		"x":  {1, 0, 0},
		"y":  {0, 1, 0},
		"xy": {1, 1, 0},
		"z":  {0, 0, 1},
	}
	for id, v := range vecs {
		if err := ix.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 4 {
		t.Errorf("Len = %d", ix.Len())
	}
	hits := ix.Search([]float64{1, 0.1, 0}, 2)
	if len(hits) != 2 || hits[0].ID != "x" {
		t.Fatalf("hits = %v, want x first", hits)
	}
	if hits[1].ID != "xy" {
		t.Errorf("second hit = %s, want xy", hits[1].ID)
	}
	if err := ix.Add("bad", []float64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestFlatL2(t *testing.T) {
	ix := NewFlat(2, L2)
	ix.Add("near", []float64{1, 1})
	ix.Add("far", []float64{10, 10})
	hits := ix.Search([]float64{0, 0}, 2)
	if hits[0].ID != "near" {
		t.Errorf("L2 order wrong: %v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Error("scores must be higher-is-better")
	}
}

func TestFlatDeterministicTieBreak(t *testing.T) {
	ix := NewFlat(2, Cosine)
	ix.Add("b", []float64{1, 0})
	ix.Add("a", []float64{1, 0})
	hits := ix.Search([]float64{1, 0}, 2)
	if hits[0].ID != "a" || hits[1].ID != "b" {
		t.Errorf("tie break should be by ID: %v", hits)
	}
}

// Property: flat search always returns results sorted by descending score
// and the top-1 is the true argmax.
func TestFlatTopOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ix := NewFlat(3, L2)
		n := 5 + r.Intn(20)
		best := ""
		bestD := 1e18
		q := []float64{r.Float64(), r.Float64(), r.Float64()}
		for i := 0; i < n; i++ {
			v := []float64{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
			id := fmt.Sprintf("v%02d", i)
			ix.Add(id, v)
			d := (v[0]-q[0])*(v[0]-q[0]) + (v[1]-q[1])*(v[1]-q[1]) + (v[2]-q[2])*(v[2]-q[2])
			if d < bestD {
				bestD, best = d, id
			}
		}
		hits := ix.Search(q, n)
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score {
				return false
			}
		}
		return hits[0].ID == best
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
