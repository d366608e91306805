package synth

import (
	"encoding/binary"
	"fmt"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// Checkpoint blob codec: the wire form a post-link snapshot takes through
// the remote result tier. A blob carries the resolved top, the prefix's
// transcript lines, the source files in read order, and the netlist in its
// bit-exact binary form (netlist.Encode). The decoder re-parses the sources
// — rebuilding file.Modules identically, since modules are pure values of
// the text — and netlist.Decode restores the post-link netlist with IDs,
// orders, and edit generations intact, so a session restored from a remote
// blob behaves byte-for-byte like one restored from a local snapshot.
//
// decodeCheckpoint treats its input as untrusted network bytes: malformed
// blobs return an error (the store then falls back to fresh elaboration),
// never a panic or a half-built snapshot.

const (
	ckptMagic   = "CKPT"
	ckptVersion = 1
)

// encodeCheckpoint serializes a snapshot. Deterministic for a given
// snapshot, so re-uploads of the same checkpoint are byte-identical. The
// netlist codec walks a netlist, so the image is thawed for it — once per
// capture, and only with a remote tier attached.
func encodeCheckpoint(cp *checkpoint) []byte {
	buf := append([]byte(ckptMagic), ckptVersion)
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	str(cp.top)
	buf = binary.AppendUvarint(buf, uint64(len(cp.log)))
	for _, line := range cp.log {
		str(line)
	}
	buf = binary.AppendUvarint(buf, uint64(len(cp.srcs)))
	for _, src := range cp.srcs {
		str(src.Name)
		str(src.Text)
	}
	nb := netlist.Encode(cp.img.Thaw(nil))
	buf = binary.AppendUvarint(buf, uint64(len(nb)))
	buf = append(buf, nb...)
	return buf
}

// decodeCheckpoint reconstructs a snapshot from an encodeCheckpoint blob,
// resolving library-cell references against lib.
func decodeCheckpoint(blob []byte, lib *liberty.Library) (*checkpoint, error) {
	pos := 0
	fail := func(what string) error {
		return fmt.Errorf("checkpoint blob: bad %s at byte %d", what, pos)
	}
	uvarint := func() (int, bool) {
		v, n := binary.Uvarint(blob[pos:])
		if n <= 0 || v > uint64(len(blob)) {
			return 0, false
		}
		pos += n
		return int(v), true
	}
	str := func() (string, bool) {
		n, ok := uvarint()
		if !ok || pos+n > len(blob) {
			return "", false
		}
		s := string(blob[pos : pos+n])
		pos += n
		return s, true
	}

	if len(blob) < len(ckptMagic)+1 || string(blob[:len(ckptMagic)]) != ckptMagic {
		return nil, fail("magic")
	}
	pos = len(ckptMagic)
	if blob[pos] != ckptVersion {
		return nil, fmt.Errorf("checkpoint blob: unsupported version %d", blob[pos])
	}
	pos++

	cp := &checkpoint{}
	var ok bool
	if cp.top, ok = str(); !ok {
		return nil, fail("top")
	}
	nLog, ok := uvarint()
	if !ok {
		return nil, fail("log count")
	}
	cp.log = make([]string, nLog)
	for i := range cp.log {
		if cp.log[i], ok = str(); !ok {
			return nil, fail("log line")
		}
	}
	nSrc, ok := uvarint()
	if !ok {
		return nil, fail("source count")
	}
	cp.srcs = make([]srcText, nSrc)
	cp.file = &verilog.SourceFile{}
	for i := range cp.srcs {
		if cp.srcs[i].Name, ok = str(); !ok {
			return nil, fail("source name")
		}
		if cp.srcs[i].Text, ok = str(); !ok {
			return nil, fail("source text")
		}
		f, err := verilog.Parse(cp.srcs[i].Text)
		if err != nil {
			return nil, fmt.Errorf("checkpoint blob: source %q does not parse: %v", cp.srcs[i].Name, err)
		}
		cp.file.Modules = append(cp.file.Modules, f.Modules...)
	}
	nNL, ok := uvarint()
	if !ok || pos+nNL > len(blob) {
		return nil, fail("netlist length")
	}
	nl, err := netlist.Decode(blob[pos:pos+nNL], lib)
	if err != nil {
		return nil, fmt.Errorf("checkpoint blob: %v", err)
	}
	pos += nNL
	if pos != len(blob) {
		return nil, fmt.Errorf("checkpoint blob: %d trailing bytes", len(blob)-pos)
	}
	if cp.top != "" && cp.file.FindModule(cp.top) == nil {
		return nil, fmt.Errorf("checkpoint blob: top %q not among sources", cp.top)
	}
	cp.img = netlist.Freeze(nl)
	return cp, nil
}
