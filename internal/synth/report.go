package synth

import (
	"fmt"
	"strings"
)

// ReportTiming formats the worst timing paths the way report_timing does:
// startpoint, endpoint, per-stage increments, and slack. The text feeds back
// into the ChatLS pipeline as the "logic synthesis tool report" input.
func ReportTiming(d *Design, maxPaths int) (string, error) {
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

// ReportArea formats area statistics.
func ReportArea(d *Design) string {
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

// ReportQoR formats the quality-of-results summary.
func ReportQoR(d *Design) (string, error) {
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
