// Package tensor provides the dense linear algebra the GNN needs: row-major
// matrices, matrix products, and vector utilities (dot, norm, cosine
// similarity). It is deliberately small — just enough to train and run
// GraphSAGE without any external dependency.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/workpool"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewRandom allocates a matrix with Xavier-uniform entries from rng.
func NewRandom(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	scale := math.Sqrt(6.0 / float64(rows+cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Ensure returns a rows×cols matrix reusing m's backing array when it is
// large enough (m may be nil). Contents are unspecified; use EnsureZero when
// the caller accumulates into the result.
func Ensure(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	return m
}

// EnsureZero is Ensure plus clearing: the result is a zero matrix.
func EnsureZero(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	out := Ensure(m, rows, cols)
	if out == m {
		for i := 0; i < n; i++ {
			out.Data[i] = 0
		}
	}
	return out
}

// matrixPool recycles scratch matrices for transient kernel intermediates
// (e.g. the neighbour-term product inside a GraphSAGE layer). Get hands out
// a zeroed matrix; Put must only be called once the caller holds no views of
// the matrix's Data.
var matrixPool = sync.Pool{New: func() any { return new(Matrix) }}

// GetMatrix returns a zeroed rows×cols matrix drawn from the process-wide
// scratch pool. Pair with PutMatrix on every path once the values have been
// consumed; a matrix that is never Put is merely garbage, not a leak.
func GetMatrix(rows, cols int) *Matrix {
	m := matrixPool.Get().(*Matrix)
	return EnsureZero(m, rows, cols)
}

// PutMatrix returns a matrix obtained from GetMatrix to the scratch pool.
func PutMatrix(m *Matrix) {
	if m != nil {
		matrixPool.Put(m)
	}
}

// parallelFlops is the work size (multiply-adds) above which the row-sharded
// kernels fan out across cores. Each output row is produced entirely by one
// goroutine with the serial loop order, so the parallel path is bit-identical
// to the serial one.
const parallelFlops = 1 << 18

// ParallelRows splits [0, rows) into contiguous blocks and runs
// fn(lo, hi) on them across GOMAXPROCS goroutines, waiting for all. Callers
// must make fn write disjoint output rows only; kernels that keep per-row
// work identical to their serial loop stay bit-identical under it.
func ParallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	// A few blocks per worker smooths imbalance without per-row handout cost.
	blocks := workers * 4
	if blocks > rows {
		blocks = rows
	}
	size := (rows + blocks - 1) / blocks
	nb := (rows + size - 1) / size
	workpool.Run(workers, nb, func(b int) {
		lo := b * size
		hi := lo + size
		if hi > rows {
			hi = rows
		}
		fn(lo, hi)
	})
}

// MatMul returns a*b.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes a*b into out, which must be a zeroed a.Rows×b.Cols
// matrix (GetMatrix/EnsureZero provide one). Same kernels and loop order as
// MatMul, so the result is bit-identical.
func MatMulInto(a, b, out *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matmul shape mismatch: %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("matmul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if a.Rows*a.Cols*b.Cols >= parallelFlops && runtime.GOMAXPROCS(0) > 1 {
		ParallelRows(a.Rows, func(lo, hi int) { matMulRows(a, b, out, lo, hi) })
	} else {
		matMulRows(a, b, out, 0, a.Rows)
	}
}

// matMulRows computes out rows [lo, hi) in ikj order: the i-th output row is
// a running sum of b's rows scaled by a's entries, so the inner loop streams
// two contiguous slices and skips the zero entries abundant in one-hot
// feature blocks.
func matMulRows(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			_ = orow[len(brow)-1]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulATBInto computes aᵀ*b into out, which must be a zeroed a.Cols×b.Cols
// matrix; used for weight gradients. Every output entry is a sum over a's
// rows, so sharding the output rows would keep each sum's order (only
// sharding across a's rows would not). It stays serial because training
// already runs one graph per core (gnn.Trainer.Step), which fills them.
func MatMulATBInto(a, b, out *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("matmulATB shape mismatch: %dx%d ᵀ* %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(k)
			_ = orow[len(brow)-1]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulABTInto computes a*bᵀ into out, an a.Rows×b.Rows matrix whose
// contents it overwrites; used for input gradients.
func MatMulABTInto(a, b, out *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("matmulABT shape mismatch: %dx%d * %dx%d ᵀ into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	if a.Rows*a.Cols*b.Rows >= parallelFlops && runtime.GOMAXPROCS(0) > 1 {
		ParallelRows(a.Rows, func(lo, hi int) { matMulABTRows(a, b, out, lo, hi) })
	} else {
		matMulABTRows(a, b, out, 0, a.Rows)
	}
}

// matMulABTRows computes out rows [lo, hi) as dot products of row pairs,
// with a 4-way unrolled inner loop over the shared (contiguous) dimension.
func matMulABTRows(a, b, out *Matrix, lo, hi int) {
	k4 := a.Cols - a.Cols%4
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s0, s1, s2, s3 float64
			for k := 0; k < k4; k += 4 {
				s0 += arow[k] * brow[k]
				s1 += arow[k+1] * brow[k+1]
				s2 += arow[k+2] * brow[k+2]
				s3 += arow[k+3] * brow[k+3]
			}
			s := (s0 + s1) + (s2 + s3)
			for k := k4; k < a.Cols; k++ {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}
}

// SplitRows slices m into consecutive views of the given row counts, which
// must sum to m.Rows. The views share m's backing array (no copy), for
// distributing a batched result.
func SplitRows(m *Matrix, counts []int) []*Matrix {
	out := make([]*Matrix, len(counts))
	row := 0
	for i, n := range counts {
		out[i] = &Matrix{Rows: n, Cols: m.Cols, Data: m.Data[row*m.Cols : (row+n)*m.Cols]}
		row += n
	}
	if row != m.Rows {
		panic(fmt.Sprintf("splitrows counts sum to %d, matrix has %d rows", row, m.Rows))
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AddRowVector adds vector v to every row of m in place.
func AddRowVector(m *Matrix, v []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// ReLUInPlace applies max(0, x) in place and returns the activation mask.
func ReLUInPlace(m *Matrix) []bool {
	return ReLUMaskInto(m, nil)
}

// ReLUMaskInto is ReLUInPlace reusing mask's capacity for the returned
// activation mask (mask may be nil).
func ReLUMaskInto(m *Matrix, mask []bool) []bool {
	if cap(mask) < len(m.Data) {
		mask = make([]bool, len(m.Data))
	}
	mask = mask[:len(m.Data)]
	for i, v := range m.Data {
		if v > 0 {
			mask[i] = true
		} else {
			mask[i] = false
			m.Data[i] = 0
		}
	}
	return mask
}

// MaskInPlace zeroes entries whose mask is false (ReLU backprop).
func MaskInPlace(m *Matrix, mask []bool) {
	for i := range m.Data {
		if !mask[i] {
			m.Data[i] = 0
		}
	}
}

// Vector helpers.

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm.
func Norm(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Cosine returns the cosine similarity of two vectors (0 when either is
// the zero vector).
func Cosine(a, b []float64) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// L2Dist returns the Euclidean distance.
func L2Dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Normalize returns a/||a|| (a copy; zero vectors pass through).
func Normalize(a []float64) []float64 {
	n := Norm(a)
	out := make([]float64, len(a))
	if n == 0 {
		copy(out, a)
		return out
	}
	for i := range a {
		out[i] = a[i] / n
	}
	return out
}

// Mean returns the element-wise mean of the vectors.
func Mean(vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		for i := range v {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(vecs))
	}
	return out
}

// Scale multiplies a vector by s in place.
func Scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}

// Axpy computes a += s*b in place.
func Axpy(a []float64, s float64, b []float64) {
	for i := range a {
		a[i] += s * b[i]
	}
}
