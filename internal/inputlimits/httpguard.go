package inputlimits

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// HTTP ingress hardening, shared by every daemon in the repo (chatlsd's
// /v1/customize and the remote cache's /v1/qor endpoints).
// The contract mirrors the parser budgets: arbitrary bytes in, either a
// decoded value out or an HTTP status in {413, 400} with a safe message —
// never a panic, never a 500 for any input shape. Semantic validation
// (well-formed JSON with invalid field values → 422) stays with the
// endpoint, since it depends on the endpoint's meaning rather than the
// bytes themselves.

// DecodeJSONRequest reads and decodes r's body into dst under a byte cap:
// the body is wrapped in http.MaxBytesReader (so an oversized body is
// aborted at the cap, not buffered), unknown fields are rejected, and
// trailing data after the JSON value is rejected. It returns http.StatusOK
// and nil on success, http.StatusRequestEntityTooLarge for a body over the
// cap, or http.StatusBadRequest for any syntax problem.
func DecodeJSONRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return http.StatusBadRequest, errors.New("bad request body: trailing data after JSON object")
	}
	return http.StatusOK, nil
}

// ReadRawBody reads r's entire body as opaque bytes under a byte cap — the
// ingress guard for binary payloads (QoR records). It
// returns the bytes with http.StatusOK, or nil with
// http.StatusRequestEntityTooLarge (body over the cap) /
// http.StatusBadRequest (transport-level read failure).
func ReadRawBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, int, error) {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	b, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return b, http.StatusOK, nil
}
