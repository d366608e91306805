package resilience

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
)

func TestRetryBoundedSucceedsAfterTransientFailures(t *testing.T) {
	transient := errors.New("transient")
	calls := 0
	failures, err := RetryBounded(3, func(error) bool { return true }, func() error {
		calls++
		if calls < 3 {
			return transient
		}
		return nil
	})
	if err != nil || calls != 3 || failures != 2 {
		t.Fatalf("got err=%v calls=%d failures=%d, want success on 3rd call with 2 failures", err, calls, failures)
	}
}

func TestRetryBoundedStopsOnTerminalError(t *testing.T) {
	terminal := errors.New("terminal")
	calls := 0
	failures, err := RetryBounded(5, func(error) bool { return false }, func() error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) || calls != 1 || failures != 1 {
		t.Fatalf("got err=%v calls=%d failures=%d, want 1 terminal failure", err, calls, failures)
	}
}

func TestRetryBoundedExhaustsAttempts(t *testing.T) {
	transient := errors.New("transient")
	calls := 0
	failures, err := RetryBounded(3, func(error) bool { return true }, func() error {
		calls++
		return transient
	})
	if !errors.Is(err, transient) || calls != 3 || failures != 3 {
		t.Fatalf("got err=%v calls=%d failures=%d, want exhaustion after 3", err, calls, failures)
	}
}

func TestRetryBoundedZeroAttemptsRunsOnce(t *testing.T) {
	calls := 0
	if _, err := RetryBounded(0, nil, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("got err=%v calls=%d, want one successful call", err, calls)
	}
}

// timeoutErr implements net.Error with Timeout() true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestIsRetryableNet(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{syscall.ECONNREFUSED, false},
		{fmt.Errorf("dial: %w", syscall.EHOSTUNREACH), false},
		{syscall.ECONNRESET, true},
		{fmt.Errorf("write: %w", syscall.EPIPE), true},
		{io.ErrUnexpectedEOF, true},
		{timeoutErr{}, false},
		{&net.OpError{Op: "read", Err: timeoutErr{}}, false},
		{errors.New("some application error"), false},
	}
	for _, c := range cases {
		if got := IsRetryableNet(c.err); got != c.want {
			t.Errorf("IsRetryableNet(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
