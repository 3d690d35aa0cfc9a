// Package store persists recommender snapshots. The format is a small
// versioned header followed by a gob-encoded core.Snapshot; everything
// derived (LSB tree, vectors, inverted files) is rebuilt on
// load, so files stay compact and forward motion on index internals never
// invalidates stored data.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"videorec/internal/core"
	"videorec/internal/faults"
)

// Format constants.
const (
	magic   = "VRECSNAP"
	version = 1
)

// Errors returned by the decoder.
var (
	ErrBadMagic   = errors.New("store: not a videorec snapshot")
	ErrBadVersion = errors.New("store: unsupported snapshot version")
)

// Save writes the snapshot to w.
func Save(w io.Writer, snap *core.Snapshot) error {
	if snap == nil {
		return errors.New("store: nil snapshot")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(version)); err != nil {
		return fmt.Errorf("store: write version: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	return bw.Flush()
}

// Load reads a snapshot from r.
func Load(r io.Reader) (*core.Snapshot, error) {
	br := bufio.NewReader(r)
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
	if ver != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	var snap core.Snapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	return &snap, nil
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
