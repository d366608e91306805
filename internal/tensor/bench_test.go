package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The naive ijk kernels below are the reference implementations the shipped
// kernels replaced. They stay in the test file for two jobs: an independent
// correctness oracle for the optimized kernels (including their parallel
// paths), and the baseline the Benchmark*Naive results are read against.

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulATB(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func naiveMatMulABT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matMulATB and matMulABT are the transposed kernels with a fresh output,
// the shape the oracle and the benchmarks compare.
func matMulATB(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	MatMulATBInto(a, b, out)
	return out
}

func matMulABT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	MatMulABTInto(a, b, out)
	return out
}

func randomMatrix(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b *Matrix) float64 {
	var worst float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestKernelsMatchNaive checks the optimized kernels (at sizes straddling
// the parallel threshold) against the naive reference.
func TestKernelsMatchNaive(t *testing.T) {
	for _, n := range []int{7, 33, 96} {
		a := randomMatrix(n, n+3, int64(n))
		b := randomMatrix(n+3, n+1, int64(n)+100)
		if d := maxAbsDiff(MatMul(a, b), naiveMatMul(a, b)); d > 1e-9 {
			t.Errorf("MatMul n=%d: max diff %g", n, d)
		}
		c := randomMatrix(n, n+1, int64(n)+200)
		if d := maxAbsDiff(matMulATB(a, c), naiveMatMulATB(a, c)); d > 1e-9 {
			t.Errorf("MatMulATB n=%d: max diff %g", n, d)
		}
		e := randomMatrix(n+5, n+3, int64(n)+300)
		if d := maxAbsDiff(matMulABT(a, e), naiveMatMulABT(a, e)); d > 1e-9 {
			t.Errorf("MatMulABT n=%d: max diff %g", n, d)
		}
	}
}

// TestParallelRowsCoversAllRows checks the block decomposition covers
// [0, rows) exactly once for awkward row counts.
func TestParallelRowsCoversAllRows(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 7, 64, 101} {
		seen := make([]int, rows)
		ParallelRows(rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("rows=%d: row %d visited %d times", rows, i, n)
			}
		}
	}
}

var benchSizes = []int{32, 64, 128}

func benchKernel(b *testing.B, fn func(a, c *Matrix) *Matrix) {
	for _, n := range benchSizes {
		x := randomMatrix(n, n, 1)
		y := randomMatrix(n, n, 2)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(x, y)
			}
		})
	}
}

func BenchmarkMatMul(b *testing.B)         { benchKernel(b, MatMul) }
func BenchmarkMatMulNaive(b *testing.B)    { benchKernel(b, naiveMatMul) }
func BenchmarkMatMulATB(b *testing.B)      { benchKernel(b, matMulATB) }
func BenchmarkMatMulATBNaive(b *testing.B) { benchKernel(b, naiveMatMulATB) }
func BenchmarkMatMulABT(b *testing.B)      { benchKernel(b, matMulABT) }
func BenchmarkMatMulABTNaive(b *testing.B) { benchKernel(b, naiveMatMulABT) }
