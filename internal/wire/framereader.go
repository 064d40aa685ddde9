package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// FrameBufSize is the refill window of a FrameReader: one read(2) can pull in
// up to this many bytes, so under a coalescing sender (256KiB write batches)
// one syscall yields many frames. Frames up to FrameBufSize-4 bytes are
// sliced out of the window zero-copy; larger ones fall back to a pooled spill
// buffer.
const FrameBufSize = 256 << 10

var (
	frameBufPool = sync.Pool{New: func() any {
		b := make([]byte, FrameBufSize)
		return &b
	}}
	spillPool = sync.Pool{New: func() any {
		b := make([]byte, 0, MaxFrame)
		return &b
	}}
)

// FrameReader reads length-prefixed message frames (the WriteFrame format)
// through a large pooled buffer: one read per buffer refill and zero
// allocations in the steady state, where a plain reader — ReadFrame, kept in
// readframe_test.go as the reference — pays two read(2) calls and one
// allocation per frame.
//
// The slice returned by Next aliases the reader's internal buffer and is
// valid only until the following Next or Release call — that implicit
// handback is the recycle hook: the caller decodes the frame (wire.Decode
// copies everything it retains) and the buffer is reused for subsequent
// frames instead of going to the garbage collector. Release returns the
// pooled buffers; the reader is unusable afterwards.
//
// Error classification is byte-for-byte identical to that reference's (proven
// by FuzzFrameReader): io.EOF cleanly between frames, io.ErrUnexpectedEOF on a
// torn header or body, ErrFrameSize on a hostile length prefix, and any
// other underlying read error verbatim. Errors are sticky.
type FrameReader struct {
	r     io.Reader
	buf   []byte // refill window; frames are sliced from it zero-copy
	start int    // first unconsumed byte in buf
	end   int    // one past the last valid byte in buf
	spill []byte // fallback for frames larger than the window
	err   error  // sticky underlying read error (io.EOF, net errors, ...)

	reads  uint64 // underlying Read calls issued
	frames uint64 // frames returned by Next

	pooled   bool
	released bool
}

// NewFrameReader returns a FrameReader over r using a pooled FrameBufSize
// window. Call Release when done with the stream.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: *frameBufPool.Get().(*[]byte), pooled: true}
}

// newFrameReaderSize is the test hook: a tiny window exercises the refill,
// compaction and spill paths on small inputs.
func newFrameReaderSize(r io.Reader, size int) *FrameReader {
	if size < 5 {
		size = 5
	}
	return &FrameReader{r: r, buf: make([]byte, size)}
}

// refill issues one underlying Read into the free tail of the window,
// compacting the unconsumed bytes to the front first if the tail is full.
func (fr *FrameReader) refill() {
	if fr.end == len(fr.buf) {
		copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.end -= fr.start
		fr.start = 0
	}
	n, err := fr.r.Read(fr.buf[fr.end:])
	fr.reads++
	fr.end += n
	if err != nil {
		fr.err = err
	}
}

// eofErr maps the sticky underlying error to io.ReadFull's classification given how many bytes of the current unit (header or body)
// were consumed when the stream ended: 0 bytes → the error as-is (io.EOF
// between frames), partial → io.ErrUnexpectedEOF for EOF, other errors
// verbatim.
func (fr *FrameReader) eofErr(got int) error {
	if got > 0 && fr.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return fr.err
}

// Next returns the next frame payload. The slice is valid only until the
// following Next or Release call.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.released {
		return nil, errors.New("wire: frame reader released")
	}
	for fr.end-fr.start < 4 {
		if fr.err != nil {
			return nil, fr.eofErr(fr.end - fr.start)
		}
		fr.refill()
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.start:]))
	if n == 0 || n > MaxFrame {
		fr.start += 4
		return nil, fmt.Errorf("%w: invalid frame length %d", ErrFrameSize, n)
	}
	total := 4 + n
	if total <= len(fr.buf) {
		for fr.end-fr.start < total {
			if fr.err != nil {
				return nil, fr.eofErr(fr.end - fr.start - 4)
			}
			fr.refill()
		}
		frame := fr.buf[fr.start+4 : fr.start+total]
		fr.start += total
		fr.frames++
		return frame, nil
	}
	// The frame is larger than the window: assemble it in the spill buffer.
	// Everything buffered belongs to this frame (total > len(buf) ≥ end-start).
	if cap(fr.spill) < n {
		if fr.pooled && fr.spill == nil {
			fr.spill = *spillPool.Get().(*[]byte)
		}
		if cap(fr.spill) < n {
			fr.spill = make([]byte, 0, n)
		}
	}
	body := fr.spill[:n]
	got := copy(body, fr.buf[fr.start+4:fr.end])
	fr.start, fr.end = 0, 0
	for got < n {
		if fr.err != nil {
			return nil, fr.eofErr(got)
		}
		nn, err := fr.r.Read(body[got:])
		fr.reads++
		got += nn
		if err != nil {
			fr.err = err
		}
	}
	fr.frames++
	return body, nil
}

// Pending reports whether Next can return a frame (or a determinable framing
// error) from already-buffered bytes without touching the underlying reader.
// The batching read loop uses it to drain every buffered frame into one
// delivery batch and block only when the buffer is dry.
func (fr *FrameReader) Pending() bool {
	avail := fr.end - fr.start
	if avail < 4 {
		return false
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.start:]))
	if n == 0 || n > MaxFrame {
		return true // Next returns ErrFrameSize without reading
	}
	return avail >= 4+n
}

// Stats returns the cumulative underlying Read calls and frames produced —
// the transport derives its frames-per-read histogram from deltas of these.
func (fr *FrameReader) Stats() (reads, frames uint64) {
	return fr.reads, fr.frames
}

// Release returns the pooled buffers. Frames previously returned by Next are
// invalid afterwards, and further Next calls fail.
func (fr *FrameReader) Release() {
	if fr.released {
		return
	}
	fr.released = true
	if fr.pooled {
		if fr.buf != nil {
			buf := fr.buf[:FrameBufSize]
			frameBufPool.Put(&buf)
		}
		if fr.spill != nil {
			spill := fr.spill[:0]
			spillPool.Put(&spill)
		}
	}
	fr.buf, fr.spill = nil, nil
}
