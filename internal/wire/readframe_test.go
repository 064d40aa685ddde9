package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ReadFrame reads one length-prefixed message frame with two io.ReadFull
// calls. FrameReader replaced it on every production read path; it stays here
// as the reference oracle FrameReader's framing and error classification are
// tested against (FuzzReadFrame, FuzzFrameReader, framereader_test.go).
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: invalid frame length %d", ErrFrameSize, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}
