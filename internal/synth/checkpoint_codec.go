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
// transcript lines, the source files in read order, and the snapshot's
// netlist image in its own wire form (netlist.Image.AppendBinary), which runs
// to the end of the blob. The decoder re-parses the sources — rebuilding
// file.Modules identically, since modules are pure values of the text — and
// keeps the decoded image as the snapshot's, so a session restored from a
// remote blob thaws the same columns as one restored from a local snapshot
// and behaves byte for byte like it.
//
// decodeCheckpoint treats its input as untrusted network bytes: malformed
// blobs return an error (the store then falls back to fresh elaboration),
// never a panic or a half-built snapshot. A blob of another version is
// malformed too, so it reads as a miss and the next capture replaces it.

const (
	ckptMagic   = "CKPT"
	ckptVersion = 2
)

// encodeCheckpoint serializes a snapshot. Deterministic for a given
// snapshot, so re-uploads of the same checkpoint are byte-identical.
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
	return cp.img.AppendBinary(buf)
}

// decodeCheckpoint reconstructs a snapshot from an encodeCheckpoint blob,
// resolving library-cell references against lib.
func decodeCheckpoint(blob []byte, lib *liberty.Library) (*checkpoint, error) {
	if len(blob) <= len(ckptMagic) || string(blob[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("checkpoint blob: bad magic")
	}
	if v := blob[len(ckptMagic)]; v != ckptVersion {
		return nil, fmt.Errorf("checkpoint blob: unsupported version %d", v)
	}
	// uvarint reads a count or a string length, neither of which can exceed
	// the bytes left; the first failure latches ok and zeroes every later read.
	pos, ok := len(ckptMagic)+1, true
	uvarint := func() int {
		v, n := binary.Uvarint(blob[pos:])
		if !ok || n <= 0 || v > uint64(len(blob)-pos-n) {
			ok = false
			return 0
		}
		pos += n
		return int(v)
	}
	str := func() string {
		n := uvarint()
		pos += n
		return string(blob[pos-n : pos])
	}

	cp := &checkpoint{top: str(), log: make([]string, uvarint())}
	for i := range cp.log {
		cp.log[i] = str()
	}
	cp.srcs = make([]srcText, uvarint())
	for i := range cp.srcs {
		cp.srcs[i] = srcText{Name: str(), Text: str()}
	}
	if !ok {
		return nil, fmt.Errorf("checkpoint blob: truncated at byte %d", pos)
	}
	cp.file = &verilog.SourceFile{}
	for _, src := range cp.srcs {
		f, err := verilog.Parse(src.Text)
		if err != nil {
			return nil, fmt.Errorf("checkpoint blob: source %q does not parse: %v", src.Name, err)
		}
		cp.file.Modules = append(cp.file.Modules, f.Modules...)
	}
	if cp.top != "" && cp.file.FindModule(cp.top) == nil {
		return nil, fmt.Errorf("checkpoint blob: top %q not among sources", cp.top)
	}
	img, err := netlist.DecodeImage(blob[pos:], lib)
	if err != nil {
		return nil, fmt.Errorf("checkpoint blob: %v", err)
	}
	cp.img = img
	return cp, nil
}
