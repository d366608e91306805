package synth

import (
	"fmt"
	"strings"

	"repro/internal/netlist"
)

// reverseModules returns src with its module declarations in reverse order.
// Lines outside every module — blanks, comments — stay in front. It also
// returns how many modules it moved.
func reverseModules(src string) (string, int) {
	var outside strings.Builder
	var modules []string
	var cur strings.Builder
	in := false
	for _, line := range strings.SplitAfter(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if !in && strings.HasPrefix(trimmed, "module ") {
			in = true
		}
		if !in {
			outside.WriteString(line)
			continue
		}
		cur.WriteString(line)
		if trimmed == "endmodule" {
			modules = append(modules, strings.TrimSuffix(cur.String(), "\n")+"\n")
			cur.Reset()
			in = false
		}
	}
	for i := len(modules) - 1; i >= 0; i-- {
		outside.WriteString(modules[i])
	}
	return outside.String(), len(modules)
}

// renameNets gives every net of nl a new name, the names in the reverse of
// the nets' order, and returns nl: the transform of a compiled design under
// which its QoR must stay bit-identical.
func renameNets(nl *netlist.Netlist) *netlist.Netlist {
	for i, n := range nl.Nets {
		n.Name = fmt.Sprintf("r%08d", len(nl.Nets)-i)
	}
	return nl
}
