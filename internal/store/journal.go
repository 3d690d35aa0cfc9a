package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"strconv"
	"sync"

	"videorec/internal/community"
	"videorec/internal/faults"
)

// Journal is an append-only log of comment batches — the write-ahead
// complement to snapshots: a deployment snapshots periodically and journals
// every ApplyUpdates batch in between, so a crash loses nothing. Entries are
// newline-delimited JSON objects (one batch per line), trivially greppable
// and append-safe.
//
// The journal doubles as the replication log: every record carries a
// monotonically increasing sequence number that survives process restarts
// (opening a file-backed journal scans it and continues from the highest
// sequence seen) and a CRC32C checksum, so replicas can resume from a
// cursor and corruption is detected per record rather than per file.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer
	bw   *bufio.Writer
	c    io.Closer
	n    int    // batches appended through this Journal instance
	seq  uint64 // highest sequence number written or observed
	base uint64 // sequence the log starts after (compaction marker)
	path string // non-empty for file-backed journals (enables Compact)
}

// Edge is one derived social connection — a user pair and the weight a
// comment batch added to it. Shard journals carry the batch's global edge
// list alongside each shard's local comment slice, so a single-shard replica
// can maintain its sub-community copy without seeing the rest of the corpus.
type Edge = community.Edge

// record is the wire form of one journal line. Four shapes share it:
//
//   - v3 entry:  {"seq":N,"crc":C,"comments":{...},"edges":[...]} — shard
//     entry carrying the globally derived connections for the batch
//   - v2 entry:  {"seq":N,"crc":C,"comments":{...}} — checksummed batch
//   - v1 entry:  {"seq":N,"comments":{...}}         — legacy, no checksum
//   - marker:    {"base":N}                          — compaction marker:
//     entries with seq ≤ N were folded into a snapshot and dropped
type record struct {
	Seq      uint64              `json:"seq,omitempty"`
	CRC      *uint32             `json:"crc,omitempty"`
	Comments map[string][]string `json:"comments,omitempty"`
	Edges    []Edge              `json:"edges,omitempty"`
	Base     *uint64             `json:"base,omitempty"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entryCRC computes the CRC32C of an entry: the sequence number and the
// canonical JSON encoding of the batch (json.Marshal sorts map keys, so the
// encoding — and therefore the checksum — is deterministic across the
// append/replay round trip). Edge-carrying entries append the edge encoding
// after a separator; edge-less entries (edges == nil) checksum exactly as v2
// did, so old journals verify unchanged.
func entryCRC(seq uint64, comments, edges []byte) uint32 {
	var head [24]byte
	crc := crc32.Update(0, castagnoli, append(strconv.AppendUint(head[:0], seq, 10), ':'))
	crc = crc32.Update(crc, castagnoli, comments)
	if edges != nil {
		crc = crc32.Update(crc, castagnoli, []byte{'|'})
		crc = crc32.Update(crc, castagnoli, edges)
	}
	return crc
}

// EncodeEdges returns the JSON encoding of an edge list that a journal entry
// carries and checksums (nil for an empty list: no edges), so a sharded
// deployment encodes a batch's list once for every shard's journal.
func EncodeEdges(edges []Edge) ([]byte, error) {
	if len(edges) == 0 {
		return nil, nil
	}
	return json.Marshal(edges)
}

// encodeEntry renders one journal line: byte for byte what
// json.Marshal(record{Seq: seq, CRC: &crc, Comments: comments, Edges: …})
// followed by a newline produces for an entry (seq ≥ 1), but with the
// comments encoded once for both the checksum and the line, and the
// pre-encoded edges (an EncodeEdges result) copied in rather than
// re-marshalled. Empty comments and edges are omitted, as omitempty would.
func encodeEntry(seq uint64, comments map[string][]string, edges []byte) ([]byte, error) {
	if len(comments) == 0 {
		comments = nil // checksummed as "null", omitted from the line
	}
	if len(edges) == 0 {
		edges = nil
	}
	body, err := json.Marshal(comments)
	if err != nil {
		return nil, err
	}
	line := strconv.AppendUint(append(make([]byte, 0, len(body)+len(edges)+64), `{"seq":`...), seq, 10)
	line = strconv.AppendUint(append(line, `,"crc":`...), uint64(entryCRC(seq, body, edges)), 10)
	if comments != nil {
		line = append(append(line, `,"comments":`...), body...)
	}
	if edges != nil {
		line = append(append(line, `,"edges":`...), edges...)
	}
	return append(line, '}', '\n'), nil
}

// parseRecord decodes one journal line and verifies its checksum when
// present. isMarker reports a compaction marker (rec.Base set).
func parseRecord(line []byte) (rec record, isMarker bool, err error) {
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, false, err
	}
	if rec.Base != nil && rec.Comments == nil && rec.Edges == nil && rec.Seq == 0 {
		return rec, true, nil
	}
	if rec.CRC != nil {
		body, err := json.Marshal(rec.Comments)
		if err != nil {
			return rec, false, err
		}
		var edges []byte
		if rec.Edges != nil {
			if edges, err = json.Marshal(rec.Edges); err != nil {
				return rec, false, err
			}
		}
		if want := entryCRC(rec.Seq, body, edges); want != *rec.CRC {
			return rec, false, fmt.Errorf("crc mismatch on seq %d: file says %08x, payload is %08x", rec.Seq, *rec.CRC, want)
		}
	}
	return rec, false, nil
}

// NewJournal wraps a writer. If w is also an io.Closer, Close closes it.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: w, bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// OpenJournal opens (or creates) an append-mode journal file. The existing
// file is scanned so sequence numbers continue where the previous process
// stopped — a torn trailing line is tolerated (AttachJournal repairs it),
// corruption elsewhere is an error.
func OpenJournal(path string) (*Journal, error) {
	base, last, err := scanJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j := NewJournal(f)
	j.path = path
	j.base = base
	j.seq = last
	return j, nil
}

// scanJournal reads the journal at path and reports its compaction base and
// highest sequence number. A missing file is an empty journal. A torn final
// line is skipped, matching replay semantics.
func scanJournal(path string) (base, last uint64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: open journal: %w", err)
	}
	defer f.Close()
	// Scan with a cursor beyond any real sequence: positions and bases are
	// tracked, no entry bodies are retained.
	tail, err := readTail(f, ^uint64(0), 0)
	if err != nil {
		return 0, 0, err
	}
	return tail.Base, tail.Head, nil
}

// Append logs one comment batch under the next sequence number and flushes
// it to the underlying writer.
func (j *Journal) Append(comments map[string][]string) error {
	if len(comments) == 0 {
		return nil
	}
	return j.AppendEntry(comments, nil)
}

// AppendEntry logs one batch — comments plus, for shard journals, the
// globally derived edge list as EncodeEdges encoded it — under the next
// sequence number. Unlike Append, a batch with edges but no local comments
// still claims a sequence number: every shard's journal advances in lockstep
// with the global batch sequence even when the batch touched no video on
// this shard.
func (j *Journal) AppendEntry(comments map[string][]string, edges []byte) error {
	if len(comments) == 0 && len(edges) == 0 {
		return nil
	}
	if err := faults.Inject(faults.JournalAppend); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(j.seq+1, comments, edges)
}

// AppendEntryAt is AppendEntry under an explicit sequence number — the
// replica side of journal shipping, where the primary assigned the
// sequence. The number must extend the log contiguously; callers
// deduplicate already-seen sequences before appending.
func (j *Journal) AppendEntryAt(seq uint64, comments map[string][]string, edges []byte) error {
	if len(comments) == 0 && len(edges) == 0 {
		return nil
	}
	if err := faults.Inject(faults.JournalAppend); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq != j.seq+1 {
		return fmt.Errorf("store: journal append at seq %d would leave a gap after %d", seq, j.seq)
	}
	return j.appendLocked(seq, comments, edges)
}

func (j *Journal) appendLocked(seq uint64, comments map[string][]string, edges []byte) error {
	line, err := encodeEntry(seq, comments, edges)
	if err != nil {
		return fmt.Errorf("store: encode journal entry: %w", err)
	}
	if _, err := j.bw.Write(line); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	j.seq = seq
	j.n++
	return nil
}

// Entries returns the number of batches appended through this Journal
// instance (not the file's historical total — see Seq for that).
func (j *Journal) Entries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Seq returns the highest sequence number written to (or scanned from) the
// journal — the head of the replication log.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Base returns the sequence number the retained log starts after: entries
// with seq ≤ Base were compacted into a snapshot and are no longer
// available for tailing.
func (j *Journal) Base() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base
}

// Compact atomically replaces the journal file with a single compaction
// marker at the current head: every retained entry is assumed to have been
// folded into a snapshot the caller just wrote. Sequence numbers continue
// from the head, so replicas holding an older cursor get ErrCompacted from
// the tail reader and know to re-bootstrap. File-backed journals only.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resetLocked(j.seq)
}

// ResetTo atomically replaces the journal file with a compaction marker at
// seq, discarding all retained entries — the replica-bootstrap primitive:
// after loading a primary snapshot covering seq, the local log restarts
// from there. File-backed journals only.
func (j *Journal) ResetTo(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resetLocked(seq)
}

func (j *Journal) resetLocked(seq uint64) error {
	if j.path == "" {
		return errors.New("store: compact requires a file-backed journal")
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	if j.c != nil {
		if err := j.c.Close(); err != nil {
			return fmt.Errorf("store: compact journal: %w", err)
		}
	}
	dir := dirOf(j.path)
	tmp, err := os.CreateTemp(dir, ".vrecwal-*")
	if err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	if seq > 0 {
		b, err := json.Marshal(record{Base: &seq})
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact journal: %w", err)
		}
		if _, err := tmp.Write(append(b, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact journal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("store: compact journal: %w", err)
	}
	syncDir(dir)
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen compacted journal: %w", err)
	}
	j.w, j.c = f, f
	j.bw = bufio.NewWriter(f)
	j.base, j.seq = seq, seq
	return nil
}

// Close flushes and closes the underlying writer when it is closable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil {
		return err
	}
	if j.c != nil {
		return j.c.Close()
	}
	return nil
}

// ReplayJournalEntries streams every batch of a journal to fn in append
// order: each batch's sequence number (what restart paths use to restore
// their replication cursor), comments, and — for shard journals — the
// derived edge list it was appended with. Edge-less (v1/v2) records replay
// with nil edges; compaction markers are skipped (they carry no batch). A
// truncated or corrupt trailing line (crash mid-append) is tolerated and
// skipped; corruption elsewhere — including a per-record checksum mismatch
// — is an error. Legacy checksum-less records replay without verification.
func ReplayJournalEntries(r io.Reader, fn func(seq uint64, comments map[string][]string, edges []Edge) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	replayed := 0
	var pendingErr error
	for sc.Scan() {
		if pendingErr != nil {
			// A bad line followed by more data is real corruption.
			return replayed, pendingErr
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, marker, err := parseRecord(line)
		if err != nil {
			pendingErr = fmt.Errorf("store: corrupt journal entry after %d batches: %w", replayed, err)
			continue
		}
		if marker {
			continue
		}
		if err := fn(rec.Seq, rec.Comments, rec.Edges); err != nil {
			return replayed, err
		}
		replayed++
	}
	if err := sc.Err(); err != nil {
		return replayed, fmt.Errorf("store: read journal: %w", err)
	}
	if pendingErr != nil {
		// pendingErr on the final line = a crash mid-append tore the tail.
		// The valid prefix is the log; warn and carry on.
		log.Printf("store: journal replay tolerating torn tail after %d batches: %v", replayed, pendingErr)
	}
	return replayed, nil
}

// RepairJournal truncates a torn final record (a crash mid-append) from the
// journal at path, returning the number of bytes dropped. A missing file and
// a clean journal both return 0. Corruption that is NOT confined to the
// final record — a bad line with any data after it — is an error, exactly as
// in ReplayJournalEntries: repair must never silently discard valid batches. A
// complete final record whose checksum does not verify is treated the same
// as a torn one: it cannot be distinguished from a partially flushed append
// and the valid prefix is the log.
func RepairJournal(path string) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open journal: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<16)
	var offset int64   // bytes consumed so far
	var validEnd int64 // end offset of the last valid complete record
	badStart := int64(-1)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 && rerr == io.EOF {
			break
		}
		if rerr != nil && rerr != io.EOF {
			return 0, fmt.Errorf("store: read journal: %w", rerr)
		}
		start := offset
		offset += int64(len(line))
		if badStart >= 0 {
			// Any line after a bad record — valid or not — means the damage
			// is not a single torn tail.
			return 0, fmt.Errorf("store: journal %s corrupt at byte %d with %d trailing bytes — not a torn tail", path, badStart, offset-badStart)
		}
		complete := rerr == nil // the line ended with '\n'
		trimmed := bytes.TrimSpace(line)
		parses := false
		if complete && len(trimmed) > 0 {
			_, _, perr := parseRecord(trimmed)
			parses = perr == nil
		}
		switch {
		case len(trimmed) == 0 && complete:
			validEnd = offset // blank line: ReplayJournalEntries skips these
		case parses:
			validEnd = offset
		default:
			badStart = start
		}
		if rerr == io.EOF {
			break
		}
	}
	if badStart < 0 {
		return 0, nil
	}
	dropped := offset - validEnd
	if err := f.Truncate(validEnd); err != nil {
		return 0, fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("store: fsync journal: %w", err)
	}
	return dropped, nil
}

// ReplayJournalFileEntries replays a journal from disk (see
// ReplayJournalEntries); a missing file replays zero batches.
func ReplayJournalFileEntries(path string, fn func(seq uint64, comments map[string][]string, edges []Edge) error) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: open journal: %w", err)
	}
	defer f.Close()
	return ReplayJournalEntries(f, fn)
}
