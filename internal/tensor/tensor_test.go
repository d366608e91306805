package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Error("At/Set broken")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Error("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone must not alias")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero broken")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-12 {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewRandom(4, 3, rng)
	b := NewRandom(4, 5, rng)
	// aᵀ*b via MatMulATBInto must equal transpose(a)*b computed manually.
	atb := matMulATB(a, b)
	at := NewMatrix(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	ref := MatMul(at, b)
	for i := range ref.Data {
		if math.Abs(atb.Data[i]-ref.Data[i]) > 1e-12 {
			t.Fatalf("MatMulATB mismatch at %d", i)
		}
	}
	// a*bᵀ via MatMulABTInto, over an output holding stale values.
	c := NewRandom(6, 5, rng)
	abt := NewRandom(4, 6, rng)
	MatMulABTInto(b, c, abt) // (4x5)*(6x5)ᵀ = 4x6
	ct := NewMatrix(5, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	ref2 := MatMul(b, ct)
	for i := range ref2.Data {
		if math.Abs(abt.Data[i]-ref2.Data[i]) > 1e-12 {
			t.Fatalf("MatMulABT mismatch at %d", i)
		}
	}
}

func TestMatMulPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch must panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestReLUAndMask(t *testing.T) {
	m := NewMatrix(1, 4)
	copy(m.Data, []float64{-1, 2, 0, 3})
	mask := ReLUInPlace(m)
	if m.Data[0] != 0 || m.Data[1] != 2 || m.Data[3] != 3 {
		t.Errorf("relu: %v", m.Data)
	}
	if mask[0] || !mask[1] || mask[2] || !mask[3] {
		t.Errorf("mask: %v", mask)
	}
	g := NewMatrix(1, 4)
	copy(g.Data, []float64{5, 5, 5, 5})
	MaskInPlace(g, mask)
	if g.Data[0] != 0 || g.Data[1] != 5 {
		t.Errorf("masked grad: %v", g.Data)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 || Norm(a) != 5 {
		t.Error("dot/norm broken")
	}
	if c := Cosine([]float64{1, 0}, []float64{0, 1}); c != 0 {
		t.Errorf("orthogonal cosine = %g", c)
	}
	if c := Cosine(a, a); math.Abs(c-1) > 1e-12 {
		t.Errorf("self cosine = %g", c)
	}
	if Cosine([]float64{0, 0}, a) != 0 {
		t.Error("zero-vector cosine should be 0")
	}
	if d := L2Dist([]float64{0, 0}, a); d != 5 {
		t.Errorf("L2 = %g", d)
	}
	n := Normalize(a)
	if math.Abs(Norm(n)-1) > 1e-12 {
		t.Error("normalize not unit")
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero normalize should pass through")
	}
	m := Mean([][]float64{{1, 2}, {3, 4}})
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("mean = %v", m)
	}
	if Mean(nil) != nil {
		t.Error("empty mean should be nil")
	}
	v := []float64{1, 2}
	Scale(v, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Error("scale broken")
	}
	Axpy(v, 2, []float64{1, 1})
	if v[0] != 5 || v[1] != 8 {
		t.Error("axpy broken")
	}
}

func TestAddHelpers(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{1, 2, 3, 4})
	AddInPlace(a, b)
	if a.Data[3] != 4 {
		t.Error("AddInPlace broken")
	}
	AddRowVector(a, []float64{10, 20})
	if a.At(0, 0) != 11 || a.At(1, 1) != 24 {
		t.Errorf("AddRowVector: %v", a.Data)
	}
}

// Property: cosine similarity is bounded in [-1, 1] and symmetric.
func TestCosineProperties(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for i := range a {
			// Clamp to a range where the norm product cannot overflow.
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
		}
		c1 := Cosine(a[:], b[:])
		c2 := Cosine(b[:], a[:])
		return c1 >= -1-1e-9 && c1 <= 1+1e-9 && math.Abs(c1-c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiply distributes over addition: (a+b)*c == a*c + b*c.
func TestMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		a := NewRandom(3, 4, rng)
		b := NewRandom(3, 4, rng)
		c := NewRandom(4, 2, rng)
		sum := a.Clone()
		AddInPlace(sum, b)
		left := MatMul(sum, c)
		right := MatMul(a, c)
		AddInPlace(right, MatMul(b, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				t.Fatalf("distributivity violated at %d", i)
			}
		}
	}
}
