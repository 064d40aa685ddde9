// Package bloom implements the Bloom-filter inverse-mapping digests of the
// TerraDir replication protocol (paper §3.6). A digest summarizes the set of
// node names hosted by one server; other servers test names against it to
// discover routing shortcuts and to prune stale map entries. The only
// supported query is membership with one-sided error (false positives only),
// exactly as the paper requires.
//
// Digests are versioned: a server rebuilds its digest when its hosted set
// changes and bumps the version; peers keep the newest version they have
// seen. Keys are 64-bit hashes (the protocol layers hash node identities
// before testing), double-hashed into k probe positions (Kirsch–Mitzenmacher).
package bloom

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Filter is a Bloom filter over 64-bit keys. The zero value is unusable;
// construct with New.
type Filter struct {
	bits    []uint64
	mBits   uint64 // number of bits (power of two)
	mask    uint64
	k       uint32
	n       uint64 // number of keys added
	version uint64
}

// New creates a filter with the given number of bits (rounded up to a power
// of two, minimum 64) and hash count k (clamped to [1, 16]).
func New(bits uint64, k uint32) *Filter {
	if bits < 64 {
		bits = 64
	}
	// Round up to a power of two so probe positions are maskable.
	m := uint64(64)
	for m < bits {
		m <<= 1
	}
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{
		bits:  make([]uint64, m/64),
		mBits: m,
		mask:  m - 1,
		k:     k,
	}
}

// Version returns the filter's version counter (see BumpVersion).
func (f *Filter) Version() uint64 { return f.version }

// BumpVersion increments the version counter; the owning server calls this
// after a rebuild so peers can prefer the newest digest.
func (f *Filter) BumpVersion() { f.version++ }

// SetVersion sets the version counter (used when deserializing).
func (f *Filter) SetVersion(v uint64) { f.version = v }

// K returns the number of hash probes.
func (f *Filter) K() uint32 { return f.k }

// MBits returns the filter size in bits.
func (f *Filter) MBits() uint64 { return f.mBits }

// Count returns the number of keys added since the last Reset.
func (f *Filter) Count() uint64 { return f.n }

// mix is a 64-bit finalizer (splitmix64) giving a second independent hash
// stream for double hashing.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashes returns key's probes: i at h1 + i·h2 masked to the size, h2 odd.
func hashes(key uint64) (h1, h2 uint64) {
	return mix(key), mix(key^0x9e3779b97f4a7c15) | 1
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	h1, h2 := hashes(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) & f.mask
		f.bits[pos>>6] |= 1 << (pos & 63)
	}
	f.n++
}

// Test reports whether key may be in the set. False positives are possible;
// false negatives are not.
func (f *Filter) Test(key uint64) bool {
	h1, h2 := hashes(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) & f.mask
		if f.bits[pos>>6]&(1<<(pos&63)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears all bits and the key count; the version is preserved (callers
// bump it after repopulating).
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// Clone returns a deep copy of the filter, including its version.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		bits:    make([]uint64, len(f.bits)),
		mBits:   f.mBits,
		mask:    f.mask,
		k:       f.k,
		n:       f.n,
		version: f.version,
	}
	copy(c.bits, f.bits)
	return c
}

// Marshal serializes the filter to a compact byte slice (version, k, mBits,
// n, then the bit array little-endian).
func (f *Filter) Marshal() []byte {
	return f.AppendTo(make([]byte, 0, 32+len(f.bits)*8))
}

// AppendTo appends Marshal's layout to dst and returns the extended slice,
// so callers embedding digests in larger frames serialize without an
// intermediate allocation.
func (f *Filter) AppendTo(dst []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 32+8*len(f.bits))[:off+32+8*len(f.bits)]
	b := dst[off:]
	binary.LittleEndian.PutUint64(b[0:], f.version)
	binary.LittleEndian.PutUint64(b[8:], uint64(f.k))
	binary.LittleEndian.PutUint64(b[16:], f.mBits)
	binary.LittleEndian.PutUint64(b[24:], f.n)
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(b[32+8*i:], w)
	}
	return dst
}

// Unmarshal reconstructs a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 32 {
		return nil, fmt.Errorf("bloom: truncated digest (%d bytes)", len(data))
	}
	version := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint64(data[8:])
	mBits := binary.LittleEndian.Uint64(data[16:])
	n := binary.LittleEndian.Uint64(data[24:])
	if mBits < 64 || mBits&(mBits-1) != 0 {
		return nil, fmt.Errorf("bloom: invalid size %d", mBits)
	}
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("bloom: invalid hash count %d", k)
	}
	words := int(mBits / 64)
	if len(data) != 32+words*8 {
		return nil, fmt.Errorf("bloom: size mismatch: %d bytes for %d-bit filter", len(data), mBits)
	}
	f := &Filter{
		bits:    make([]uint64, words),
		mBits:   mBits,
		mask:    mBits - 1,
		k:       uint32(k),
		n:       n,
		version: version,
	}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[32+8*i:])
	}
	return f, nil
}

// HashString hashes a node name to a digest key (FNV-1a 64).
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
