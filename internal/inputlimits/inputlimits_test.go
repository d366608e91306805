package inputlimits

import (
	"errors"
	"testing"

	"repro/internal/resilience"
)

func TestLimitErrorTaxonomy(t *testing.T) {
	m := NewMeter(SurfaceVerilog, Budget{MaxBytes: 10})
	err := m.CheckBytes(11)
	if err == nil {
		t.Fatal("expected a limit error")
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("error %v is not a *LimitError", err)
	}
	if le.Limit != LimitBytes || le.Max != 10 || le.Actual != 11 || le.Surface != SurfaceVerilog {
		t.Fatalf("unexpected fields: %+v", le)
	}
	if !errors.Is(err, resilience.ErrBudgetExceeded) {
		t.Fatalf("limit error %v must unwrap to resilience.ErrBudgetExceeded", err)
	}
}

func TestZeroBudgetUnlimited(t *testing.T) {
	m := NewMeter(SurfaceScript, Budget{})
	if err := m.CheckBytes(1 << 30); err != nil {
		t.Fatalf("zero budget must not limit bytes: %v", err)
	}
	for i := 0; i < 10000; i++ {
		if err := m.Token(); err != nil {
			t.Fatalf("zero budget must not limit tokens: %v", err)
		}
		if err := m.Step(); err != nil {
			t.Fatalf("zero budget must not limit steps: %v", err)
		}
		if err := m.Enter(); err != nil {
			t.Fatalf("zero budget must not limit depth: %v", err)
		}
	}
}

func TestNilMeterSafe(t *testing.T) {
	var m *Meter
	if err := m.CheckBytes(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Token(); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if err := m.Enter(); err != nil {
		t.Fatal(err)
	}
	m.Exit()
	if err := m.Statement(5); err != nil {
		t.Fatal(err)
	}
}

func TestMeterTrips(t *testing.T) {
	m := NewMeter(SurfaceCypher, Budget{MaxTokens: 3, MaxDepth: 2, MaxSteps: 5, MaxStatements: 1})
	for i := 0; i < 3; i++ {
		if err := m.Token(); err != nil {
			t.Fatalf("token %d under budget: %v", i, err)
		}
	}
	if err := m.Token(); err == nil {
		t.Fatal("4th token must exceed MaxTokens=3")
	}
	if err := m.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := m.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := m.Enter(); err == nil {
		t.Fatal("depth 3 must exceed MaxDepth=2")
	}
	m.Exit()
	m.Exit()
	m.Exit()
	if err := m.Enter(); err != nil {
		t.Fatalf("after Exit, depth must be back under budget: %v", err)
	}
	if err := m.Statement(2); err == nil {
		t.Fatal("2 statements must exceed MaxStatements=1")
	}
}

// TestForShippedBudgets: each parser surface reads its shipped budget, and
// a surface with none (the HTTP ingress, which carries its own caps, or an
// unknown name) is unlimited.
func TestForShippedBudgets(t *testing.T) {
	for surface, want := range map[string]Budget{
		SurfaceVerilog: {MaxBytes: 8 << 20, MaxTokens: 4 << 20, MaxDepth: 256, MaxStatements: 1 << 20, MaxSteps: 16 << 20},
		SurfaceScript:  {MaxBytes: 1 << 20, MaxTokens: 1 << 19, MaxDepth: 64, MaxStatements: 1 << 16, MaxSteps: 4 << 20},
		SurfaceCypher:  {MaxBytes: 1 << 16, MaxTokens: 1 << 13, MaxDepth: 64, MaxStatements: 1 << 10, MaxSteps: 1 << 20},
		SurfaceHTTP:    {},
		"liberty":      {},
		"unknown":      {},
	} {
		if got := For(surface); got != want {
			t.Errorf("For(%q) = %+v, want %+v", surface, got, want)
		}
	}
}
