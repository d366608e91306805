package synth

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/resilience"
)

// TestRunInvalidCommandLineNumber: a hallucinated command aborts the run
// and the error names the offending line, the way dc_shell batch runs do.
func TestRunInvalidCommandLineNumber(t *testing.T) {
	script := "read_verilog tiny.v\ncurrent_design tiny\noptimize_timing -aggressive\n"
	_, err := newTestSession().RunContext(context.Background(), script)
	if err == nil {
		t.Fatal("invalid command must abort the run")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name line 3: %v", err)
	}
	if !strings.Contains(err.Error(), "optimize_timing") {
		t.Errorf("error should name the command: %v", err)
	}
}

// TestRunMissingClockConstraint: compile without create_clock fails with a
// diagnosable error instead of producing a meaningless QoR.
func TestRunMissingClockConstraint(t *testing.T) {
	noClk := `
read_verilog tiny.v
current_design tiny
link
compile
report_qor
`
	_, err := newTestSession().RunContext(context.Background(), noClk)
	if err == nil {
		t.Fatal("compile without a clock constraint must fail")
	}
	if !strings.Contains(strings.ToLower(err.Error()), "clock") &&
		!strings.Contains(strings.ToLower(err.Error()), "period") {
		t.Errorf("error should mention the missing clock/period: %v", err)
	}
}

// TestRunContextCancelled: a cancelled context aborts script execution with
// the typed cancellation error before any further command runs.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := newTestSession().RunContext(ctx, goodScript)
	if err == nil {
		t.Fatal("cancelled context must abort the run")
	}
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Errorf("want ErrCancelled, got %v", err)
	}
}

// TestRunCommandBudget: the step budget bounds execution so a hostile or
// hallucinated script cannot run unbounded.
func TestRunCommandBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("read_verilog tiny.v\ncurrent_design tiny\n")
	for i := 0; i < 10; i++ {
		b.WriteString("echo filler line\n")
	}
	s := newTestSession()
	s.MaxCommands = 4
	_, err := s.RunContext(context.Background(), b.String())
	if err == nil {
		t.Fatal("exceeding the command budget must abort the run")
	}
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Errorf("error should name the first over-budget line (5): %v", err)
	}
}

// TestRunBudgetDefaultsAllowNormalScripts: the default budget never
// interferes with legitimate scripts.
func TestRunBudgetDefaultsAllowNormalScripts(t *testing.T) {
	res, err := newTestSession().RunContext(context.Background(), goodScript)
	if err != nil {
		t.Fatalf("default budget broke a normal script: %v", err)
	}
	if res.QoR == nil {
		t.Error("QoR missing")
	}
}

// TestRunUnlimitedBudget: a negative MaxCommands disables the cap.
func TestRunUnlimitedBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("read_verilog tiny.v\n")
	for i := 0; i < DefaultMaxCommands+8; i++ {
		b.WriteString("echo filler\n")
	}
	s := newTestSession()
	s.MaxCommands = -1
	if _, err := s.RunContext(context.Background(), b.String()); err != nil {
		t.Fatalf("unlimited budget should allow long scripts: %v", err)
	}
	// And the same script trips the default budget.
	s2 := newTestSession()
	if _, err := s2.RunContext(context.Background(), b.String()); !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Errorf("default budget should trip on %d commands: %v", DefaultMaxCommands+9, err)
	}
}
