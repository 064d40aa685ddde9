package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"terradir/internal/core"
	"terradir/internal/wire"
)

// errTail classifies a record that cannot be replayed: torn (truncated
// mid-write), CRC-corrupt, or undecodable. Replay stops cleanly there.
var errTail = errors.New("persist: unreadable wal record")

// replay loads the newest valid snapshot plus every WAL record after it.
// Called once from Open, before the store is shared.
func (s *Store) replay() (*ReplayState, error) {
	rs := &ReplayState{}

	// Newest snapshot that verifies wins; corrupt ones are skipped with a
	// warning (an older snapshot plus a longer WAL tail replays the same
	// state). With the node index enabled, a valid index generation covering
	// the snapshot is preferred: the snapshot's records stay on disk
	// (rs.Indexed) instead of being materialized, and a missing or corrupt
	// index is rebuilt from the snapshot it mirrors.
	snaps := listSeqFiles(s.dir, snapPrefix, snapSuffix)
	for i := len(snaps) - 1; i >= 0; i-- {
		if s.opts.NodeIndex {
			ixPath := s.indexPath(snaps[i].seq)
			ix, err := openIndex(ixPath)
			if err == nil && ix.seq != snaps[i].seq {
				err = fmt.Errorf("persist: index seq %d does not match snapshot %d", ix.seq, snaps[i].seq)
				ix.Retire()
			}
			if err == nil {
				rs.Incarnation = ix.incarnation
				rs.SnapshotSeq = snaps[i].seq
				rs.Indexed = true
				rs.IndexedRecords = ix.count
				s.setIndex(ix)
				break
			}
			if !os.IsNotExist(err) {
				s.opts.Logf("persist: index %s unusable, rebuilding from snapshot: %v", ixPath, err)
			}
		}
		records, inc, err := loadSnapshot(snaps[i].path)
		if err != nil {
			s.opts.Logf("persist: skipping snapshot %s: %v", snaps[i].path, err)
			continue
		}
		if s.opts.NodeIndex {
			// Rebuild the index generation from the verified snapshot records
			// (the index is a pure cache of snapshot state). On success the
			// records are served through it; on failure fall back to the
			// classic in-memory replay.
			if ix := s.rebuildIndex(snaps[i].seq, inc, records); ix != nil {
				rs.Incarnation = inc
				rs.SnapshotSeq = snaps[i].seq
				rs.Indexed = true
				rs.IndexedRecords = ix.count
				s.setIndex(ix)
				break
			}
		}
		rs.Mutations = records
		rs.Incarnation = inc
		rs.SnapshotSeq = snaps[i].seq
		break
	}

	// Replay WAL segments in sequence order. Records at or below the
	// snapshot's covered sequence (or out of order — duplicated by a
	// half-finished retire) are skipped; the first torn or corrupt record
	// stops replay, and if it is in the live tail segment the file is
	// truncated so the next run starts clean.
	rs.LastSeq = rs.SnapshotSeq
	segs := listSeqFiles(s.dir, walPrefix, walSuffix)
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("persist: read wal segment: %w", err)
		}
		good, err := scanSegment(data, func(seq uint64, kind byte, body []byte) error {
			if seq <= rs.LastSeq {
				return nil // superseded by snapshot, or duplicate
			}
			switch kind {
			case recMutation:
				mu, err := wire.DecodeHosted(body)
				if err != nil {
					return fmt.Errorf("%w: %v", errTail, err)
				}
				rs.Mutations = append(rs.Mutations, *mu)
			case recIncarnation:
				if len(body) != 8 {
					return fmt.Errorf("%w: incarnation body of %d bytes", errTail, len(body))
				}
				if inc := binary.LittleEndian.Uint64(body); inc > rs.Incarnation {
					rs.Incarnation = inc
				}
			default:
				// Unknown record kind: written by a newer version; skip.
			}
			rs.LastSeq = seq
			return nil
		})
		if err != nil {
			rs.Truncated = true
			s.opts.Logf("persist: wal %s: stopping replay at offset %d: %v", seg.path, good, err)
			if i == len(segs)-1 {
				// Torn tail of the live segment (kill -9 mid-append):
				// truncate so the next segment generation starts clean.
				if terr := os.Truncate(seg.path, int64(good)); terr != nil {
					s.opts.Logf("persist: wal %s: truncate failed: %v", seg.path, terr)
				}
			}
			break
		}
	}
	return rs, nil
}

// scanSegment walks one WAL segment, invoking apply for each intact record.
// It returns the byte offset of the last intact record's end — the clean
// truncation point — and a non-nil error if the walk stopped before the end
// of the data (torn or corrupt record, or apply's own error).
func scanSegment(data []byte, apply func(seq uint64, kind byte, body []byte) error) (int, error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, fmt.Errorf("%w: bad segment header", errTail)
	}
	off := len(walMagic)
	for off < len(data) {
		if len(data)-off < recHeaderLen {
			return off, fmt.Errorf("%w: torn record header", errTail)
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln < 9 || ln > MaxRecord {
			return off, fmt.Errorf("%w: record length %d out of range", errTail, ln)
		}
		if len(data)-off-recHeaderLen < int(ln) {
			return off, fmt.Errorf("%w: torn record payload", errTail)
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+int(ln)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, fmt.Errorf("%w: crc mismatch", errTail)
		}
		if err := apply(binary.LittleEndian.Uint64(payload), payload[8], payload[9:]); err != nil {
			return off, err
		}
		off += recHeaderLen + int(ln)
	}
	return off, nil
}

// loadSnapshot reads and verifies one snapshot file, returning its records
// and persisted incarnation.
func loadSnapshot(path string) ([]core.HostedMutation, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	const header = len(snapMagic) + 8 + 8 + 4
	if len(data) < header+4 {
		return nil, 0, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, fmt.Errorf("persist: snapshot crc mismatch")
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("persist: bad snapshot header")
	}
	off := len(snapMagic) + 8 // covered seq: encoded in the filename too; unused here
	inc := binary.LittleEndian.Uint64(data[off:])
	off += 8
	count := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if count < 0 || count > len(body)/4 {
		return nil, 0, fmt.Errorf("persist: implausible snapshot record count %d", count)
	}
	records := make([]core.HostedMutation, 0, count)
	for i := 0; i < count; i++ {
		if len(body)-off < 4 {
			return nil, 0, fmt.Errorf("persist: snapshot truncated at record %d", i)
		}
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if ln < 0 || len(body)-off < ln {
			return nil, 0, fmt.Errorf("persist: snapshot record %d overruns file", i)
		}
		mu, err := wire.DecodeHosted(data[off : off+ln])
		if err != nil {
			return nil, 0, fmt.Errorf("persist: snapshot record %d: %w", i, err)
		}
		records = append(records, *mu)
		off += ln
	}
	if off != len(body) {
		return nil, 0, fmt.Errorf("persist: snapshot has %d trailing bytes", len(body)-off)
	}
	return records, inc, nil
}
