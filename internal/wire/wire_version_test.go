package wire

import (
	"errors"
	"strings"
	"testing"

	"terradir/internal/core"
)

// TestLegacyFrameRejectedAsUnknownMarker asserts a wire ≤3 frame — which led
// with its kind tag (1..10) where version 4 puts the Magic byte — is rejected
// as an unknown frame marker: corruption, never a panic, and never mistaken
// for a well-framed message of an unknown kind.
func TestLegacyFrameRejectedAsUnknownMarker(t *testing.T) {
	for kind := byte(1); kind <= 10; kind++ {
		_, err := Decode([]byte{kind, 0xde, 0xad})
		if err == nil || errors.Is(err, ErrUnknownKind) || !strings.Contains(err.Error(), "unknown frame marker") {
			t.Fatalf("legacy kind %d: want an unknown-marker error, got %v", kind, err)
		}
	}
}

// TestVersionFrameLeadsWithMagic pins the v4 self-identification invariant
// the legacy rejection depends on.
func TestVersionFrameLeadsWithMagic(t *testing.T) {
	data, err := Encode(&core.LoadProbeMsg{Session: 1, From: 2})
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != Magic {
		t.Fatalf("v4 frame leads with 0x%02x, want Magic 0x%02x", data[0], Magic)
	}
	if Magic >= 1 && Magic <= 10 {
		t.Fatal("Magic collides with the legacy kind range")
	}
}
