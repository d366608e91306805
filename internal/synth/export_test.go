package synth

import (
	"context"
	"fmt"
)

// MaxDerived is maxDerived, for the census in census_test.go.
const MaxDerived = maxDerived

// FirstCompileKey runs script in s, whose store must already hold the
// script's post-link snapshot, and returns the compile key its first compile
// consulted the derived level under, printed: "" when the run never reached
// the level — no canonical link prefix, an edit before the compile, no
// compile, a failure before one. The snapshot's level is emptied before the
// run, so nothing is served and the run computes as a storeless one would.
func FirstCompileKey(s *Session, script string) string {
	cmds, err := ParseScript(script)
	if err != nil {
		return ""
	}
	_, files, top, ok := linkPrefix(cmds)
	if !ok {
		return ""
	}
	key, ok := s.checkpointKey(files, top)
	if !ok {
		return ""
	}
	cp, ok := s.Checkpoints.cache.Peek(key)
	if !ok {
		return ""
	}
	cp.mu.Lock()
	cp.derived = nil
	cp.mu.Unlock()
	s.Evaluate(context.Background(), script)
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if len(cp.derived) == 0 {
		return ""
	}
	return fmt.Sprintf("%+v", cp.derived[0].key)
}

// ReadOnlyAfterCompile reports whether script has a compile and runs nothing
// after its first one but what readOnly admits: what a run the derived level
// serves then reads off the entry, with no analysis.
func ReadOnlyAfterCompile(script string) bool {
	cmds, err := ParseScript(script)
	if err != nil {
		return false
	}
	for i, c := range cmds {
		if c.Name == "compile" || c.Name == "compile_ultra" {
			for _, c := range cmds[i+1:] {
				if !readOnly(c.Name) {
					return false
				}
			}
			return true
		}
	}
	return false
}
