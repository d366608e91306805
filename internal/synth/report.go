package synth

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/netlist"
)

// ReportTiming formats the worst timing paths the way report_timing does:
// startpoint, endpoint, per-stage increments, and slack. The text feeds back
// into the ChatLS pipeline as the "logic synthesis tool report" input.
func ReportTiming(d *Design, maxPaths int) (string, error) {
	tm, err := d.Timing()
	if err != nil {
		return "", err
	}
	paths := tm.WorstPaths(maxPaths)
	size := 80 + len(d.NL.Name)
	for _, p := range paths {
		size += 64 + len(p.Startpoint) + len(p.Endpoint)
		for _, s := range p.Steps {
			size += 64
			if s.Cell != nil {
				size += len(s.Cell.Name) + len(s.Cell.Ref.Name) + len(s.Cell.Group)
			}
		}
	}
	var r report
	r.Grow(size)
	r.WriteString("**** report_timing ****\nDesign: ")
	r.WriteString(d.NL.Name)
	r.WriteString("   clock period: ")
	r.float(d.Cons.Period, 3, 0)
	r.WriteString(" ns\n\n")
	for i, p := range paths {
		r.WriteString("Path ")
		r.int(i + 1)
		r.WriteString("\n  Startpoint: ")
		r.WriteString(p.Startpoint)
		r.WriteString("\n  Endpoint:   ")
		r.WriteString(p.Endpoint)
		r.WriteString("\n")
		for _, s := range p.Steps {
			name, lib := "(input)", ""
			if s.Cell != nil {
				name, lib = s.Cell.Name, s.Cell.Ref.Name
			}
			r.WriteString("    ")
			r.left(name, 10)
			r.WriteString(" ")
			r.left(lib, 10)
			if s.Cell != nil && s.Cell.Group != "" {
				r.WriteString(" [")
				r.WriteString(s.Cell.Group)
				r.WriteString("]")
			}
			r.WriteString("  +")
			r.float(s.Incr, 4, 0)
			r.WriteString("  arr ")
			r.float(s.Arrival, 4, 0)
			r.WriteString("\n")
		}
		r.WriteString("  slack: ")
		r.float(p.Slack, 4, 0)
		if p.Slack < 0 {
			r.WriteString(" (VIOLATED)\n\n")
		} else {
			r.WriteString(" (MET)\n\n")
		}
	}
	return r.String(), nil
}

// ReportArea formats area statistics: the fields of netlist.Summary it
// prints, summed over the cells in the same order, without the per-kind
// counts it does not.
func ReportArea(d *Design) string {
	var s netlist.Stats
	s.Cells = len(d.NL.Cells)
	for _, c := range d.NL.Cells {
		if c.IsSeq() {
			s.Seq++
		}
		s.Area += c.Ref.Area
		s.Leakage += c.Ref.Leakage
	}
	s.Comb = s.Cells - s.Seq
	for _, n := range d.NL.Nets {
		s.MaxFanout = max(s.MaxFanout, n.Fanout())
	}
	var r report
	r.Grow(256 + len(d.NL.Name))
	r.WriteString("**** report_area ****\nDesign: ")
	r.WriteString(d.NL.Name)
	r.WriteString("\nCombinational cells: ")
	r.int(s.Comb)
	r.WriteString("\nSequential cells:    ")
	r.int(s.Seq)
	r.WriteString("\nTotal cells:         ")
	r.int(s.Cells)
	r.WriteString("\nTotal area:          ")
	r.float(s.Area, 2, 0)
	r.WriteString(" um^2\nLeakage power:       ")
	r.float(s.Leakage, 2, 0)
	r.WriteString(" nW\nMax fanout:          ")
	r.int(s.MaxFanout)
	r.WriteString("\n")
	return r.String()
}

// ReportQoR formats the quality-of-results summary.
func ReportQoR(d *Design) (string, error) {
	q, err := d.QoR()
	if err != nil {
		return "", err
	}
	var r report
	r.Grow(256 + len(q.Design))
	r.WriteString("**** report_qor ****\nDesign: ")
	r.WriteString(q.Design)
	r.WriteString("   clock period: ")
	r.float(q.Period, 3, 0)
	r.WriteString(" ns\nWNS: ")
	r.float(q.WNS, 3, 8)
	r.WriteString(" ns\nCPS: ")
	r.float(q.CPS, 3, 8)
	r.WriteString(" ns\nTNS: ")
	r.float(q.TNS, 3, 8)
	r.WriteString(" ns\nViolating endpoints: ")
	r.int(q.Violations)
	r.WriteString("\nArea: ")
	r.float(q.Area, 2, 0)
	r.WriteString(" um^2   cells: ")
	r.int(q.Cells)
	r.WriteString("   registers: ")
	r.int(q.Seq)
	r.WriteString("\n")
	return r.String(), nil
}

// report is the text buffer the hot report writers append to with strconv
// rather than fmt: each caller grows it once to about the report's length,
// and a number is formatted in num, on the stack, before it is copied in.
// The output is what the fmt verbs in the method comments produce.
type report struct {
	strings.Builder
	num [32]byte
}

// int writes v as %d.
func (r *report) int(v int) { r.Write(strconv.AppendInt(r.num[:0], int64(v), 10)) }

// float writes v as %.<prec>f, right-aligned in width bytes as
// %<width>.<prec>f is (a number's text is ASCII, so bytes are runes).
func (r *report) float(v float64, prec, width int) {
	num := appendFixed(r.num[:0], v, prec)
	for n := len(num); n < width; n++ {
		r.WriteByte(' ')
	}
	r.Write(num)
}

// appendFixed appends strconv.AppendFloat(dst, v, 'f', prec, 64) without the
// multiprecision conversion strconv takes for every 'f' with a precision. A
// %.<prec>f of v holds prec+e+1 significant digits, e = ⌊log10|v|⌋, and
// strconv rounds up to 18 significant digits in the 'e' format exactly — to
// the nearest, ties to even — through its fixed-precision Ryū path. So v is
// formatted as 'e' with that many digits and laid out as 'f'. The guess of e
// need not be exact: output whose exponent is the guessed one is the 'f'
// text, whether v rounded at the quantum 10^-prec or, one decade lower,
// carried up to 10^e; any other exponent, a digit count outside 1…15, NaN
// and ±Inf take strconv's 'f'. Zero is written directly.
func appendFixed(dst []byte, v float64, prec int) []byte {
	if v == 0 {
		if math.Signbit(v) {
			dst = append(dst, '-')
		}
		dst = append(dst, '0')
		if prec > 0 {
			dst = append(dst, '.')
			for range prec {
				dst = append(dst, '0')
			}
		}
		return dst
	}
	a := math.Abs(v)
	if math.IsInf(a, 0) || math.IsNaN(a) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	e := int(math.Floor(math.Log10(a)))
	nd := prec + e + 1
	if nd < 1 || nd > 15 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	// sci is "[-]d.ddde±dd" (no '.' when nd is 1). Moving the fraction left
	// over the '.' leaves the nd digits at sci[i:i+nd]; sci[x] is the 'e'.
	var buf [32]byte
	sci := strconv.AppendFloat(buf[:0], v, 'e', nd-1, 64)
	i := 0
	if sci[0] == '-' {
		i = 1
	}
	x := i + 1
	if nd > 1 {
		x = i + nd + 1
		copy(sci[i+1:], sci[i+2:x])
	}
	digits := sci[i : i+nd]
	got := 0
	for _, c := range sci[x+2:] {
		got = got*10 + int(c-'0')
	}
	if sci[x+1] == '-' {
		got = -got
	}
	if got != e {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	dst = append(dst, sci[:i]...)
	if e >= 0 {
		dst = append(dst, digits[:e+1]...)
		if prec > 0 {
			dst = append(dst, '.')
			dst = append(dst, digits[e+1:]...)
		}
		return dst
	}
	dst = append(dst, '0', '.')
	for range -e - 1 {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// left writes s as %-<width>s: padded with spaces to width runes.
func (r *report) left(s string, width int) {
	r.WriteString(s)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		r.WriteByte(' ')
	}
}

// ReportHierarchy lists optimization groups with their cell counts.
func ReportHierarchy(d *Design) string {
	var b strings.Builder
	b.WriteString("**** report_hierarchy ****\n")
	fmt.Fprintf(&b, "Design: %s\n", d.NL.Name)
	names := d.NL.GroupNames()
	if len(names) == 0 {
		b.WriteString("(flat)\n")
		return b.String()
	}
	for _, g := range names {
		fmt.Fprintf(&b, "  %-32s %6d cells\n", g, d.NL.Groups[g])
	}
	return b.String()
}

// ReportConstraint lists violations of the active constraints.
func ReportConstraint(d *Design) (string, error) {
	tm, err := d.Timing()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("**** report_constraint ****\n")
	viol := countViolations(tm)
	fmt.Fprintf(&b, "max_delay (clock %.3f ns): %d violating endpoints, WNS %.3f, TNS %.3f\n",
		d.Cons.Period, viol, tm.WNS(), tm.TNS())
	if d.MaxFanout > 0 {
		fos := tm.MaxFanoutViolations(d.MaxFanout)
		fmt.Fprintf(&b, "max_fanout (%d): %d violating nets\n", d.MaxFanout, len(fos))
		for i, n := range fos {
			if i >= 5 {
				fmt.Fprintf(&b, "  ... and %d more\n", len(fos)-5)
				break
			}
			fmt.Fprintf(&b, "  net %s fanout %d\n", n.Name, n.Fanout())
		}
	}
	if d.MaxArea > 0 {
		area := d.NL.Area()
		status := "MET"
		if area > d.MaxArea {
			status = "VIOLATED"
		}
		fmt.Fprintf(&b, "max_area (%.2f): %.2f (%s)\n", d.MaxArea, area, status)
	}
	return b.String(), nil
}
