// Package store persists recommender snapshots and the comment journal.
//
// A snapshot file is the magic "VRECSNAP" and a little-endian uint32 format
// version. Version 2 then holds what the engine serves from, in seven
// sections written in a fixed order, so equal states give equal bytes:
//
//	meta       view version, journal cursor, built flag
//	opts       core.Options as JSON (unknown fields are ignored)
//	user       every user name once: the UIG's users by dense id, then the
//	           descriptor-only users in first-use order
//	recs       per record, in ingestion order: id, per-signature cuboid
//	           counts, the sorted values and weights, the uint16 sort
//	           permutations, and the descriptor as user-table indices
//	part       k, dim, the lightest intra-community weight and the dense
//	           int32 assignment aligned with the user table
//	grph       the UIG's user count and its CSR base: ascending, distinct
//	           a<<32|b keys over user indices and their weights
//	done       empty; marks the end
//
// Each section is a 4-byte tag, a uint64 payload length and the CRC32C of
// those twelve bytes, then the payload and its CRC32C. The length is checked
// before the payload is read, so no count in a damaged file can make the
// reader allocate more than the section holds, and a flipped byte fails the
// checksum of the section it is in. Save and Load stream through bufio.
// Compiled series are rebuilt from their sorted form without sorting
// (signature.CompiledFromSorted), and the graph goes straight into its CSR
// base; the LSB keys, SAR vectors and inverted files are derived and rebuilt
// on load, so a change to how they are computed never invalidates a file.
//
// Version 1 was a gob-encoded snapshot of the raw series, the partition as
// a map and the graph as named edges. Load still reads it; Save writes only
// version 2.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"videorec/internal/core"
	"videorec/internal/faults"
)

// Format constants.
const (
	magic         = "VRECSNAP"
	legacyVersion = 1 // gob; read only
	version       = 2
)

// Errors returned by the decoder.
var (
	ErrBadMagic   = errors.New("store: not a videorec snapshot")
	ErrBadVersion = errors.New("store: unsupported snapshot version")
	ErrChecksum   = errors.New("store: snapshot checksum mismatch")
)

// Save writes the snapshot to w in the current format.
func Save(w io.Writer, snap *core.Snapshot) error {
	if snap == nil {
		return errors.New("store: nil snapshot")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(version)); err != nil {
		return fmt.Errorf("store: write version: %w", err)
	}
	if err := encode(bw, snap); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a snapshot of either format from r.
func Load(r io.Reader) (*core.Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: read magic: %w", err)
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, fmt.Errorf("store: read version: %w", err)
	}
	switch ver {
	case version:
		return decode(br)
	case legacyVersion:
		return loadLegacy(br)
	}
	return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
}

// SaveFile writes the snapshot to path crash-safely: the bytes go to a temp
// file in the target's directory, are fsync'd, and only then rename into
// place (with a directory fsync so the rename itself survives a power cut).
// A crash at any point leaves either the old complete snapshot or the new
// complete snapshot — never a torn file — plus at worst a stale .vrecsnap-*
// temp that the next successful save of the same directory leaves behind
// harmlessly.
func SaveFile(path string, snap *core.Snapshot) error {
	dir := dirOf(path)
	tmp, err := os.CreateTemp(dir, ".vrecsnap-*")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, snap); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close temp: %w", err)
	}
	// The kill-during-snapshot point: the new bytes exist only under the
	// temp name. Fault injection simulates dying here; the target must stay
	// untouched.
	if err := faults.Inject(faults.SnapshotCommit); err != nil {
		return fmt.Errorf("store: commit snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Errors are
// ignored: some filesystems refuse directory fsync and the rename is still
// atomic on them.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*core.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	defer f.Close()
	return Load(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
