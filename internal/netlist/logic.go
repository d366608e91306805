package netlist

import (
	"fmt"

	"repro/internal/liberty"
)

// builder creates gates with elaboration-time constant folding, the way a
// synthesis frontend folds constants while building generic logic.
type builder struct {
	nl     *Netlist
	group  string
	module string
	const0 *Net
	const1 *Net
}

func newBuilder(nl *Netlist, group, module string) *builder {
	return &builder{nl: nl, group: group, module: module}
}

func (b *builder) c0() *Net {
	if b.const0 == nil {
		b.const0 = b.nl.NewConst(false)
	}
	return b.const0
}

func (b *builder) c1() *Net {
	if b.const1 == nil {
		b.const1 = b.nl.NewConst(true)
	}
	return b.const1
}

func (b *builder) constNet(v bool) *Net {
	if v {
		return b.c1()
	}
	return b.c0()
}

// cell instantiates the weakest library cell of a kind.
func (b *builder) cell(kind liberty.Kind, ins ...*Net) (*Net, error) {
	ref := b.nl.Lib.Weakest(kind)
	if ref == nil {
		return nil, fmt.Errorf("library has no %s cell", kind)
	}
	c, err := b.nl.addCell(ref, b.group, b.module, ins)
	if err != nil {
		return nil, err
	}
	return c.Output, nil
}

// inv builds NOT with folding.
func (b *builder) inv(a *Net) (*Net, error) {
	if a.Const {
		return b.constNet(!a.Val), nil
	}
	return b.cell(liberty.KindInv, a)
}

// gate2 builds a two-input gate with constant folding. Pure-alias outcomes
// (e.g. AND with 1) return the surviving input net directly.
func (b *builder) gate2(kind liberty.Kind, x, y *Net) (*Net, error) {
	if x.Const && y.Const {
		return b.constNet(eval2(kind, x.Val, y.Val)), nil
	}
	if y.Const {
		x, y = y, x
	}
	if x.Const {
		switch kind {
		case liberty.KindAnd2:
			if !x.Val {
				return b.c0(), nil
			}
			return y, nil
		case liberty.KindOr2:
			if x.Val {
				return b.c1(), nil
			}
			return y, nil
		case liberty.KindNand2:
			if !x.Val {
				return b.c1(), nil
			}
			return b.inv(y)
		case liberty.KindNor2:
			if x.Val {
				return b.c0(), nil
			}
			return b.inv(y)
		case liberty.KindXor2:
			if !x.Val {
				return y, nil
			}
			return b.inv(y)
		case liberty.KindXnor2:
			if x.Val {
				return y, nil
			}
			return b.inv(y)
		}
	}
	return b.cell(kind, x, y)
}

func eval2(kind liberty.Kind, a, bv bool) bool {
	switch kind {
	case liberty.KindAnd2:
		return a && bv
	case liberty.KindOr2:
		return a || bv
	case liberty.KindNand2:
		return !(a && bv)
	case liberty.KindNor2:
		return !(a || bv)
	case liberty.KindXor2:
		return a != bv
	case liberty.KindXnor2:
		return a == bv
	}
	return false
}

// mux builds sel ? hi : lo with folding. MUX2 pin order: (lo, hi, sel).
func (b *builder) mux(sel, lo, hi *Net) (*Net, error) {
	if sel.Const {
		if sel.Val {
			return hi, nil
		}
		return lo, nil
	}
	if lo == hi {
		return lo, nil
	}
	if lo.Const && hi.Const {
		// Both constant but different: mux degenerates to sel or ~sel.
		if hi.Val && !lo.Val {
			return sel, nil
		}
		return b.inv(sel)
	}
	return b.cell(liberty.KindMux2, lo, hi, sel)
}

// reduce builds a balanced reduction tree of a 2-input kind.
func (b *builder) reduce(kind liberty.Kind, bits []*Net) (*Net, error) {
	if len(bits) == 0 {
		return nil, fmt.Errorf("empty reduction")
	}
	level := append([]*Net(nil), bits...)
	for len(level) > 1 {
		var next []*Net
		for i := 0; i+1 < len(level); i += 2 {
			g, err := b.gate2(kind, level[i], level[i+1])
			if err != nil {
				return nil, err
			}
			next = append(next, g)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0], nil
}

// ext zero-extends or truncates a bit vector to width w.
func (b *builder) ext(bits []*Net, w int) []*Net {
	if len(bits) >= w {
		return bits[:w]
	}
	out := make([]*Net, w)
	copy(out, bits)
	for i := len(bits); i < w; i++ {
		out[i] = b.c0()
	}
	return out
}

// adder builds a ripple-carry adder: sum = a + b + cin, returning sum bits
// and the carry out. a and b must be the same width.
func (b *builder) adder(a, y []*Net, cin *Net) (sum []*Net, cout *Net, err error) {
	if len(a) != len(y) {
		return nil, nil, fmt.Errorf("adder width mismatch %d vs %d", len(a), len(y))
	}
	carry := cin
	sum = make([]*Net, len(a))
	for i := range a {
		axb, err := b.gate2(liberty.KindXor2, a[i], y[i])
		if err != nil {
			return nil, nil, err
		}
		s, err := b.gate2(liberty.KindXor2, axb, carry)
		if err != nil {
			return nil, nil, err
		}
		sum[i] = s
		// carry = a&b | carry&(a^b)
		ab, err := b.gate2(liberty.KindAnd2, a[i], y[i])
		if err != nil {
			return nil, nil, err
		}
		cx, err := b.gate2(liberty.KindAnd2, carry, axb)
		if err != nil {
			return nil, nil, err
		}
		carry, err = b.gate2(liberty.KindOr2, ab, cx)
		if err != nil {
			return nil, nil, err
		}
	}
	return sum, carry, nil
}

// sub builds a - b (two's complement), returning difference and
// "no-borrow" (carry out; 1 means a >= b).
func (b *builder) sub(a, y []*Net) (diff []*Net, geq *Net, err error) {
	nb := make([]*Net, len(y))
	for i, bit := range y {
		inv, err := b.inv(bit)
		if err != nil {
			return nil, nil, err
		}
		nb[i] = inv
	}
	return b.adderWrap(a, nb, b.c1())
}

func (b *builder) adderWrap(a, y []*Net, cin *Net) ([]*Net, *Net, error) {
	return b.adder(a, y, cin)
}

// multiplier builds an array multiplier; result width = len(a)+len(y),
// optionally truncated by the caller.
func (b *builder) multiplier(a, y []*Net) ([]*Net, error) {
	w := len(a) + len(y)
	acc := make([]*Net, w)
	for i := range acc {
		acc[i] = b.c0()
	}
	for j, yb := range y {
		// Partial product: (a AND y[j]) << j, added into acc.
		pp := make([]*Net, w)
		for i := range pp {
			pp[i] = b.c0()
		}
		for i, ab := range a {
			if i+j >= w {
				break
			}
			g, err := b.gate2(liberty.KindAnd2, ab, yb)
			if err != nil {
				return nil, err
			}
			pp[i+j] = g
		}
		sum, _, err := b.adder(acc, pp, b.c0())
		if err != nil {
			return nil, err
		}
		acc = sum
	}
	return acc, nil
}

// shiftConst shifts bits left (positive) or right (negative) by |k|,
// filling with zeros.
func (b *builder) shiftConst(bits []*Net, k int) []*Net {
	w := len(bits)
	out := make([]*Net, w)
	for i := range out {
		src := i - k
		if src >= 0 && src < w {
			out[i] = bits[src]
		} else {
			out[i] = b.c0()
		}
	}
	return out
}

// barrel builds a variable shifter (left if dirLeft) using MUX2 stages.
func (b *builder) barrel(bits []*Net, amt []*Net, dirLeft bool) ([]*Net, error) {
	cur := bits
	for stage := 0; stage < len(amt); stage++ {
		k := 1 << stage
		if k >= len(bits)*2 {
			break
		}
		if !dirLeft {
			k = -k
		}
		shifted := b.shiftConst(cur, k)
		next := make([]*Net, len(cur))
		for i := range cur {
			m, err := b.mux(amt[stage], cur[i], shifted[i])
			if err != nil {
				return nil, err
			}
			next[i] = m
		}
		cur = next
	}
	return cur, nil
}

// eqZero returns a net that is 1 when all bits are 0.
func (b *builder) eqZero(bits []*Net) (*Net, error) {
	any, err := b.reduce(liberty.KindOr2, bits)
	if err != nil {
		return nil, err
	}
	return b.inv(any)
}

// boolVal reduces a vector to a single truth bit (OR-reduction).
func (b *builder) boolVal(bits []*Net) (*Net, error) {
	if len(bits) == 1 {
		return bits[0], nil
	}
	return b.reduce(liberty.KindOr2, bits)
}
