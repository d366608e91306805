package synth

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/designs"
)

// The fmt formulations the report writers replaced, kept as their oracle.

func fmtReportTiming(d *Design, maxPaths int) (string, error) {
	tm, err := d.Timing()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("**** report_timing ****\n")
	fmt.Fprintf(&b, "Design: %s   clock period: %.3f ns\n\n", d.NL.Name, d.Cons.Period)
	for i, p := range tm.WorstPaths(maxPaths) {
		fmt.Fprintf(&b, "Path %d\n", i+1)
		fmt.Fprintf(&b, "  Startpoint: %s\n", p.Startpoint)
		fmt.Fprintf(&b, "  Endpoint:   %s\n", p.Endpoint)
		for _, s := range p.Steps {
			name := "(input)"
			lib := ""
			group := ""
			if s.Cell != nil {
				name = s.Cell.Name
				lib = s.Cell.Ref.Name
				if s.Cell.Group != "" {
					group = " [" + s.Cell.Group + "]"
				}
			}
			fmt.Fprintf(&b, "    %-10s %-10s%s  +%.4f  arr %.4f\n", name, lib, group, s.Incr, s.Arrival)
		}
		status := "MET"
		if p.Slack < 0 {
			status = "VIOLATED"
		}
		fmt.Fprintf(&b, "  slack: %.4f (%s)\n\n", p.Slack, status)
	}
	return b.String(), nil
}

func fmtReportArea(d *Design) string {
	s := d.NL.Summary()
	var b strings.Builder
	b.WriteString("**** report_area ****\n")
	fmt.Fprintf(&b, "Design: %s\n", d.NL.Name)
	fmt.Fprintf(&b, "Combinational cells: %d\n", s.Comb)
	fmt.Fprintf(&b, "Sequential cells:    %d\n", s.Seq)
	fmt.Fprintf(&b, "Total cells:         %d\n", s.Cells)
	fmt.Fprintf(&b, "Total area:          %.2f um^2\n", s.Area)
	fmt.Fprintf(&b, "Leakage power:       %.2f nW\n", s.Leakage)
	fmt.Fprintf(&b, "Max fanout:          %d\n", s.MaxFanout)
	return b.String()
}

func fmtReportQoR(d *Design) (string, error) {
	q, err := d.QoR()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("**** report_qor ****\n")
	fmt.Fprintf(&b, "Design: %s   clock period: %.3f ns\n", q.Design, q.Period)
	fmt.Fprintf(&b, "WNS: %8.3f ns\n", q.WNS)
	fmt.Fprintf(&b, "CPS: %8.3f ns\n", q.CPS)
	fmt.Fprintf(&b, "TNS: %8.3f ns\n", q.TNS)
	fmt.Fprintf(&b, "Violating endpoints: %d\n", q.Violations)
	fmt.Fprintf(&b, "Area: %.2f um^2   cells: %d   registers: %d\n", q.Area, q.Cells, q.Seq)
	return b.String(), nil
}

// TestReportsMatchFmt holds report_timing, report_area and report_qor byte
// for byte to their fmt formulations on every benchmark design, compiled,
// first under the design's own names and then with the cells on the worst
// paths, their groups and the design renamed: names of more than ten bytes,
// and multi-byte names of fewer than ten runes but more than ten bytes, which
// %-10s pads by runes.
func TestReportsMatchFmt(t *testing.T) {
	renames := []string{
		"a_cell_name_longer_than_ten_bytes",
		"αβγδεζ",    // 6 runes, 12 bytes
		"ñandú",     // 5 runes, 7 bytes
		"日本語のセル名です", // 9 runes, 27 bytes
		"exactly_10",
		"",
	}
	for _, dd := range designs.Benchmarks() {
		t.Run(dd.Name, func(t *testing.T) {
			s := designSession(dd, nil)
			res := mustRun(t, s, linked(dd)+"compile_ultra\n")
			d := res.Design
			check := func(label string) {
				t.Helper()
				for _, n := range []int{1, 3, 10} {
					got, err := ReportTiming(d, n)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := fmtReportTiming(d, n)
					if got != want {
						t.Errorf("%s: ReportTiming(%d)\n got %q\nwant %q", label, n, got, want)
					}
				}
				if got, want := ReportArea(d), fmtReportArea(d); got != want {
					t.Errorf("%s: ReportArea\n got %q\nwant %q", label, got, want)
				}
				got, err := ReportQoR(d)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := fmtReportQoR(d); got != want {
					t.Errorf("%s: ReportQoR\n got %q\nwant %q", label, got, want)
				}
			}
			check("design names")

			tm, err := d.Timing()
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, p := range tm.WorstPaths(10) {
				for _, st := range p.Steps {
					if st.Cell != nil {
						st.Cell.Name = renames[i%len(renames)]
						st.Cell.Group = renames[(i+1)%len(renames)]
						i++
					}
				}
			}
			d.NL.Name = "tôp_désign_名"
			check("renamed")
		})
	}
}
