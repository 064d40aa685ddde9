package bloom

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
	"testing/quick"

	"terradir/internal/rng"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	src := rng.New(1)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = src.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	src := rng.New(2)
	present := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := src.Uint64()
		present[k] = true
		f.Add(k)
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		k := src.Uint64()
		if present[k] {
			continue
		}
		if f.Test(k) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f exceeds 3x target of 0.01", rate)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(1024, 4)
	if err := quick.Check(func(k uint64) bool { return !f.Test(k) }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddTestProperty(t *testing.T) {
	f := New(4096, 5)
	if err := quick.Check(func(k uint64) bool {
		f.Add(k)
		return f.Test(k)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	f := New(256, 3)
	f.BumpVersion()
	f.Add(42)
	f.Reset()
	if f.Test(42) {
		t.Fatal("key survived Reset")
	}
	if f.Count() != 0 {
		t.Fatalf("count after Reset = %d", f.Count())
	}
	if f.Version() != 1 {
		t.Fatalf("version not preserved across Reset: %d", f.Version())
	}
}

func TestVersioning(t *testing.T) {
	f := New(64, 1)
	if f.Version() != 0 {
		t.Fatal("new filter version != 0")
	}
	f.BumpVersion()
	f.BumpVersion()
	if f.Version() != 2 {
		t.Fatalf("version = %d, want 2", f.Version())
	}
	f.SetVersion(99)
	if f.Version() != 99 {
		t.Fatalf("SetVersion failed: %d", f.Version())
	}
}

func TestGeometryNormalization(t *testing.T) {
	f := New(100, 99) // not a power of two; k too large
	if f.MBits() != 128 {
		t.Fatalf("MBits = %d, want 128", f.MBits())
	}
	if f.K() != 16 {
		t.Fatalf("K = %d, want 16 (clamped)", f.K())
	}
	f2 := New(0, 0)
	if f2.MBits() != 64 || f2.K() != 1 {
		t.Fatalf("minimums not enforced: m=%d k=%d", f2.MBits(), f2.K())
	}
}

func TestClone(t *testing.T) {
	f := New(256, 4)
	f.Add(1)
	f.BumpVersion()
	c := f.Clone()
	if !c.Test(1) || c.Version() != f.Version() || c.Count() != f.Count() {
		t.Fatal("clone does not match original")
	}
	c.Add(2)
	if f.Test(2) && !f.Test(2) { // f may false-positive; check independence via bits
		t.Log("cannot distinguish via Test; checking structural independence")
	}
	// Mutating the clone must not mutate the original's bit array.
	f2 := New(256, 4)
	f2.Add(1)
	if f2.Marshal()[32] != f.Marshal()[32] && f.Count() == f2.Count() {
		t.Fatal("unexpected original mutation")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a := New(512, 4)
	b := New(512, 4)
	a.Add(10)
	b.Add(20)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Test(10) || !a.Test(20) {
		t.Fatal("union lost a member")
	}
}

func TestUnionGeometryMismatch(t *testing.T) {
	a := New(512, 4)
	b := New(1024, 4)
	if err := a.Union(b); err == nil {
		t.Fatal("expected geometry mismatch error")
	}
	c := New(512, 3)
	if err := a.Union(c); err == nil {
		t.Fatal("expected hash-count mismatch error")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewForCapacity(500, 0.02)
	src := rng.New(3)
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = src.Uint64()
		f.Add(keys[i])
	}
	f.SetVersion(7)
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Version() != 7 || g.K() != f.K() || g.MBits() != f.MBits() || g.Count() != f.Count() {
		t.Fatal("metadata did not round-trip")
	}
	for _, k := range keys {
		if !g.Test(k) {
			t.Fatalf("key %d lost in round trip", k)
		}
	}
}

// TestMarshalGoldenBytes pins the digest layout every peer on the wire relies
// on: version, k, mBits, n, then the bit words, all little-endian uint64.
// The bytes are the ones the byte-at-a-time codec produced.
func TestMarshalGoldenBytes(t *testing.T) {
	f := New(128, 3)
	for _, k := range []uint64{1, 2, 0xdeadbeef} {
		f.Add(k)
	}
	f.SetVersion(0x0102030405060708)
	const golden = "0807060504030201" + "0300000000000000" + "8000000000000000" + "0300000000000000" +
		"400400008001000000000002201c0000"
	if got := hex.EncodeToString(f.Marshal()); got != golden {
		t.Fatalf("layout changed:\n got  %s\n want %s", got, golden)
	}
	// AppendTo leaves what dst already holds in place.
	if got := f.AppendTo([]byte{0xaa}); got[0] != 0xaa || hex.EncodeToString(got[1:]) != golden {
		t.Fatalf("AppendTo after a prefix: %x", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := Unmarshal(make([]byte, 31)); err == nil {
		t.Fatal("short input accepted")
	}
	f := New(256, 4)
	data := f.Marshal()
	if _, err := Unmarshal(data[:len(data)-1]); err == nil {
		t.Fatal("truncated bit array accepted")
	}
	// Corrupt mBits to a non-power-of-two.
	bad := append([]byte(nil), data...)
	bad[16] = 0x63
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	// Corrupt k to zero.
	bad2 := append([]byte(nil), data...)
	for i := 8; i < 16; i++ {
		bad2[i] = 0
	}
	if _, err := Unmarshal(bad2); err == nil {
		t.Fatal("zero hash count accepted")
	}
}

func TestEstimatedFPRate(t *testing.T) {
	f := New(1024, 4)
	if f.EstimatedFPRate() != 0 {
		t.Fatal("empty filter FP rate != 0")
	}
	for i := uint64(0); i < 100; i++ {
		f.Add(i)
	}
	r := f.EstimatedFPRate()
	if r <= 0 || r >= 1 {
		t.Fatalf("FP rate estimate %v out of (0,1)", r)
	}
}

func TestHashStringStability(t *testing.T) {
	// FNV-1a test vector: "a" hashes to 0xaf63dc4c8601ec8c.
	if got := HashString("a"); got != 0xaf63dc4c8601ec8c {
		t.Fatalf("HashString(a) = %#x", got)
	}
	if HashString("/a/b") == HashString("/a/c") {
		t.Fatal("trivial collision")
	}
	if HashString("") != 14695981039346656037 {
		t.Fatal("empty string should hash to FNV offset basis")
	}
}

func TestDigestNameWorkflow(t *testing.T) {
	// End-to-end: server hosts names, peers test names against the digest.
	hosted := []string{"/u/pub", "/u/pub/people", "/u/pub/people/faculty"}
	f := NewForCapacity(uint64(len(hosted)), 0.01)
	for _, n := range hosted {
		f.Add(HashString(n))
	}
	for _, n := range hosted {
		if !f.Test(HashString(n)) {
			t.Fatalf("hosted name %q not found", n)
		}
	}
	misses := 0
	for _, n := range []string{"/u/priv", "/u/priv/people", "/x", "/u/pub/other"} {
		if !f.Test(HashString(n)) {
			misses++
		}
	}
	if misses == 0 {
		t.Fatal("every non-hosted name hit (filter saturated?)")
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<16, 6)
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkTest(b *testing.B) {
	f := NewForCapacity(10000, 0.01)
	for i := uint64(0); i < 10000; i++ {
		f.Add(i)
	}
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = f.Test(uint64(i))
	}
	_ = sink
}

// FuzzFilterRoundTrip: Unmarshal(AppendTo(f)) equals f for any geometry,
// content and version, and Unmarshal of arbitrary bytes never panics — what
// it accepts re-encodes to the same bytes.
func FuzzFilterRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(64), uint8(1), uint64(0))
	f.Add([]byte("0123456789abcdef"), uint16(2048), uint8(6), uint64(7))
	f.Add(New(128, 3).Marshal(), uint16(128), uint8(17), ^uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, bits uint16, k uint8, version uint64) {
		if g, err := Unmarshal(data); err == nil && !bytes.Equal(g.Marshal(), data) {
			t.Fatalf("accepted %x, re-encodes as %x", data, g.Marshal())
		}
		flt := New(uint64(bits), uint32(k))
		for i := 0; i+8 <= len(data); i += 8 {
			flt.Add(binary.LittleEndian.Uint64(data[i:]))
		}
		flt.SetVersion(version)
		enc := flt.AppendTo(data[:len(data):len(data)])
		if !bytes.Equal(enc[:len(data)], data) {
			t.Fatal("AppendTo overwrote its prefix")
		}
		g, err := Unmarshal(enc[len(data):])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, flt) {
			t.Fatalf("round trip changed the filter:\n got  %+v\n want %+v", g, flt)
		}
	})
}

// digestFilter is a full digest as peers piggyback it: 2 KiB of bits.
func digestFilter() *Filter {
	f := New(16384, 6)
	for i := uint64(0); i < 1024; i++ {
		f.Add(i)
	}
	return f
}

func BenchmarkFilterMarshal(b *testing.B) {
	f := digestFilter()
	buf := make([]byte, 0, 4096)
	b.SetBytes(int64(len(f.Marshal())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.AppendTo(buf[:0])
	}
}

func BenchmarkFilterUnmarshal(b *testing.B) {
	data := digestFilter().Marshal()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
