package resilience

import (
	"errors"
	"io"
	"syscall"
)

// RetryBounded runs op up to attempts times (attempts <= 0 selects 1),
// stopping early when it succeeds or when retryable reports the error is not
// worth another attempt. It returns the number of failed attempts and the
// final error (nil on success), so callers can account every failure in
// their metrics without keeping their own loop.
//
// This is the one bounded-retry loop shared by the durable stores: the QoR
// log's append path (retryable = IsRetryableDisk) and the remote-cache
// client's HTTP operations (retryable = IsRetryableNet) both classify with
// their own predicate but retry with the same shape. Unlike Execute it adds
// no panic recovery or context plumbing — it is for tight local loops over
// operations that either succeed quickly or should stop being hammered.
// Pipeline stages are never retried: they are deterministic, so only I/O
// like this can fail transiently.
func RetryBounded(attempts int, retryable func(error) bool, op func() error) (failures int, err error) {
	if attempts <= 0 {
		attempts = 1
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		if err = op(); err == nil {
			return failures, nil
		}
		failures++
		if retryable == nil || !retryable(err) {
			return failures, err
		}
	}
	return failures, err
}

// IsRetryableNet classifies a network-I/O error as transient (worth retrying
// the request against the same endpoint) or terminal (the caller should
// degrade instead of hammering it). A mid-flight connection drop is
// transient — the peer was there and may answer a retry. A refused or
// unreachable connection means nothing is listening, and a timeout that the
// peer let pass would cost the next attempt the same wait: retries fix
// neither on the timescale of one request.
func IsRetryableNet(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}
