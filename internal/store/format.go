package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"videorec/internal/core"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// Section tags, in file order (see the package comment).
const (
	tagMeta      = "meta"
	tagOpts      = "opts"
	tagUsers     = "user"
	tagRecords   = "recs"
	tagPartition = "part"
	tagGraph     = "grph"
	tagDone      = "done"
)

var le = binary.LittleEndian

// encode writes snap's sections. Every section's length is computed before
// its payload is streamed, so nothing is buffered beyond bufio's window.
func encode(bw *bufio.Writer, snap *core.Snapshot) error {
	opts, err := json.Marshal(snap.Options)
	if err != nil {
		return fmt.Errorf("store: encode options: %w", err)
	}
	users, index := userTable(snap)
	e := &encoder{bw: bw, buf: make([]byte, 1<<12)}

	e.begin(tagMeta, 17)
	e.u64(snap.Version)
	e.u64(snap.JournalSeq)
	e.bool(snap.Built)
	e.end()

	e.begin(tagOpts, int64(len(opts)))
	e.write(opts)
	e.end()

	size := int64(4 + 4*len(users))
	for _, u := range users {
		size += int64(len(u))
	}
	e.begin(tagUsers, size)
	e.u32(uint32(len(users)))
	for _, u := range users {
		e.u32(uint32(len(u)))
	}
	for _, u := range users {
		e.str(u)
	}
	e.end()

	size = 4
	for i := range snap.Records {
		rec := &snap.Records[i]
		size += int64(12 + len(rec.ID) + 4*len(rec.Compiled.Sigs) + 18*len(rec.Compiled.Perm()) + 4*rec.Desc.Len())
	}
	e.begin(tagRecords, size)
	e.u32(uint32(len(snap.Records)))
	for i := range snap.Records {
		rec := &snap.Records[i]
		cs := rec.Compiled
		e.u32(uint32(len(rec.ID)))
		e.str(rec.ID)
		e.u32(uint32(len(cs.Sigs)))
		for j := range cs.Sigs {
			e.u32(uint32(len(cs.Sigs[j].V)))
		}
		for j := range cs.Sigs {
			e.f64s(cs.Sigs[j].V)
		}
		for j := range cs.Sigs {
			e.f64s(cs.Sigs[j].W)
		}
		e.u16s(cs.Perm())
		e.u32(uint32(rec.Desc.Len()))
		for _, u := range rec.Desc.Users() {
			e.u32(index[u])
		}
	}
	e.end()

	// The assignment is padded with -1 to the graph's users, as restore pads
	// it, so a reloaded state saves the same bytes.
	assigned := max(len(snap.Assign), len(snap.Users))
	e.begin(tagPartition, int64(28+4*assigned))
	e.u64(uint64(snap.K))
	e.u64(uint64(snap.Dim))
	e.u64(math.Float64bits(snap.LightestIntra))
	e.u32(uint32(assigned))
	for i := range assigned {
		c := int32(-1)
		if i < len(snap.Assign) {
			c = snap.Assign[i]
		}
		e.u32(uint32(c))
	}
	e.end()

	e.begin(tagGraph, int64(8+16*len(snap.EdgeKeys)))
	e.u32(uint32(len(snap.Users)))
	e.u32(uint32(len(snap.EdgeKeys)))
	for _, k := range snap.EdgeKeys {
		e.u64(k)
	}
	e.f64s(snap.EdgeWeights)
	e.end()

	e.begin(tagDone, 0)
	e.end()
	return e.err
}

// userTable is the snapshot's one user table: the graph's users by dense
// id, then every descriptor user the graph lacks, in first-use order, and
// each name's index in it.
func userTable(snap *core.Snapshot) ([]string, map[string]uint32) {
	users := snap.Users[:len(snap.Users):len(snap.Users)] // appends copy: snap.Users is shared
	index := make(map[string]uint32, len(users))
	for i, u := range users {
		index[u] = uint32(i)
	}
	for i := range snap.Records {
		for _, u := range snap.Records[i].Desc.Users() {
			if _, ok := index[u]; !ok {
				index[u] = uint32(len(users))
				users = append(users, u)
			}
		}
	}
	return users, index
}

// encoder streams sections, keeping the current one's running CRC32C and
// byte count. The first write error sticks and ends all writing.
type encoder struct {
	bw   *bufio.Writer
	tag  string
	want int64 // declared payload length
	n    int64 // payload bytes written
	crc  uint32
	buf  []byte // staging for bulk arrays
	err  error
}

// begin writes a section header: the tag, the payload length and their
// CRC32C.
func (e *encoder) begin(tag string, length int64) {
	var h [16]byte
	copy(h[:4], tag)
	le.PutUint64(h[4:], uint64(length))
	le.PutUint32(h[12:], crc32.Checksum(h[:12], castagnoli))
	e.put(h[:])
	e.tag, e.want, e.n, e.crc = tag, length, 0, 0
}

// end closes the section with its payload's CRC32C.
func (e *encoder) end() {
	if e.err == nil && e.n != e.want {
		e.err = fmt.Errorf("store: section %q: wrote %d bytes, declared %d", e.tag, e.n, e.want)
	}
	var b [4]byte
	le.PutUint32(b[:], e.crc)
	e.put(b[:])
}

func (e *encoder) put(p []byte) {
	if e.err == nil {
		if _, err := e.bw.Write(p); err != nil {
			e.err = fmt.Errorf("store: write section %q: %w", e.tag, err)
		}
	}
}

// write appends p to the current section's payload.
func (e *encoder) write(p []byte) {
	e.crc = crc32.Update(e.crc, castagnoli, p)
	e.n += int64(len(p))
	e.put(p)
}

func (e *encoder) str(s string) {
	for len(s) > 0 {
		n := copy(e.buf, s)
		e.write(e.buf[:n])
		s = s[n:]
	}
}

func (e *encoder) bool(b bool) {
	if b {
		e.write([]byte{1})
	} else {
		e.write([]byte{0})
	}
}

func (e *encoder) u32(x uint32) { e.write(le.AppendUint32(e.buf[:0], x)) }
func (e *encoder) u64(x uint64) { e.write(le.AppendUint64(e.buf[:0], x)) }

func (e *encoder) f64s(xs []float64) {
	for len(xs) > 0 {
		n := min(len(xs), len(e.buf)/8)
		b := e.buf[:0]
		for _, x := range xs[:n] {
			b = le.AppendUint64(b, math.Float64bits(x))
		}
		e.write(b)
		xs = xs[n:]
	}
}

func (e *encoder) u16s(xs []uint16) {
	for len(xs) > 0 {
		n := min(len(xs), len(e.buf)/2)
		b := e.buf[:0]
		for _, x := range xs[:n] {
			b = le.AppendUint16(b, x)
		}
		e.write(b)
		xs = xs[n:]
	}
}

// decode reads the sections encode writes, validating each as it goes.
func decode(br *bufio.Reader) (*core.Snapshot, error) {
	d := &decoder{br: br, buf: make([]byte, 1<<12)}
	snap := &core.Snapshot{}
	var users []string
	for _, sec := range []struct {
		tag  string
		body func()
	}{
		{tagMeta, func() {
			snap.Version = d.u64()
			snap.JournalSeq = d.u64()
			snap.Built = d.bool()
		}},
		{tagOpts, func() {
			if err := json.Unmarshal(d.read(int(d.left)), &snap.Options); err != nil {
				d.fail(err)
			}
		}},
		{tagUsers, func() { users = d.users() }},
		{tagRecords, func() { snap.Records = d.records(users) }},
		{tagPartition, func() {
			snap.K, snap.Dim = d.int(), d.int()
			snap.LightestIntra = math.Float64frombits(d.u64())
			snap.Assign = make([]int32, d.count(4))
			for i := range snap.Assign {
				snap.Assign[i] = int32(d.u32())
			}
		}},
		{tagGraph, func() {
			if n := d.u32(); int64(n) <= int64(len(users)) {
				snap.Users = users[:n:n]
			} else {
				d.fail(fmt.Errorf("%d graph users in a table of %d", n, len(users)))
			}
			snap.EdgeKeys = make([]uint64, d.count(16))
			for i := range snap.EdgeKeys {
				snap.EdgeKeys[i] = d.u64()
			}
			snap.EdgeWeights = make([]float64, len(snap.EdgeKeys))
			d.f64s(snap.EdgeWeights)
		}},
		{tagDone, func() {}},
	} {
		if err := d.section(sec.tag, sec.body); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// users reads the user table: a count, every name's length, then the names'
// bytes, which become one string the names share.
func (d *decoder) users() []string {
	lens := make([]uint32, d.count(4))
	total := int64(0)
	for i := range lens {
		lens[i] = d.u32()
		total += int64(lens[i])
	}
	if d.err == nil && total != d.left {
		d.fail(fmt.Errorf("names of %d bytes in %d", total, d.left))
	}
	all := string(d.read(int(d.left)))
	users := make([]string, len(lens))
	for i, n := range lens {
		if d.err != nil {
			return nil
		}
		users[i], all = all[:n], all[n:]
	}
	return users
}

// records reads the records, rebuilding each compiled series from its
// sorted form and each descriptor from its user indices. Each signature's
// values and weights get arrays of their own, as CompileSeries gives them.
func (d *decoder) records(users []string) []core.RecordSnapshot {
	recs := make([]core.RecordSnapshot, d.count(12))
	for i := range recs {
		id := string(d.read(d.count(1)))
		v := make([][]float64, d.count(4))
		w := make([][]float64, len(v))
		total := int64(0)
		for j := range v {
			n := d.u32()
			total += int64(n)
			if d.err == nil && total*18 > d.left {
				d.fail(fmt.Errorf("record %q: %d cuboids in %d bytes", id, total, d.left))
			}
			if d.err != nil {
				return nil
			}
			v[j], w[j] = make([]float64, n), make([]float64, n)
		}
		for j := range v {
			d.f64s(v[j])
		}
		for j := range w {
			d.f64s(w[j])
		}
		perm := make([]uint16, total)
		d.u16s(perm)
		desc := make([]string, d.count(4))
		for j := range desc {
			if u := d.u32(); int64(u) < int64(len(users)) {
				desc[j] = users[u]
			} else if d.err == nil {
				d.fail(fmt.Errorf("record %q: user index %d of %d", id, u, len(users)))
			}
		}
		if d.err != nil {
			return nil
		}
		cs, err := signature.CompiledFromSorted(v, w, perm)
		if err != nil {
			d.fail(fmt.Errorf("record %q: %w", id, err))
			return nil
		}
		ds, err := social.SortedDescriptor(desc)
		if err != nil {
			d.fail(fmt.Errorf("record %q: %w", id, err))
			return nil
		}
		recs[i] = core.RecordSnapshot{ID: id, Compiled: cs, Desc: ds}
	}
	return recs
}

// decoder reads sections. Within one, left bounds every read and every
// count, so a damaged count fails instead of allocating; the first error
// sticks until the section ends.
type decoder struct {
	br   *bufio.Reader
	left int64 // payload bytes left in the current section
	crc  uint32
	buf  []byte
	err  error
}

// section reads one section: the header, whose checksum must hold before
// the length is believed, then the payload through body, then the payload
// checksum. A payload that fails its checksum reports that, whatever body
// made of it; one that passes reports body's error, or an error if body
// left bytes unread. Every error names the section.
func (d *decoder) section(tag string, body func()) error {
	var h [16]byte
	if _, err := io.ReadFull(d.br, h[:]); err != nil {
		return fmt.Errorf("store: section %q: header: %w", tag, eofIsUnexpected(err))
	}
	if le.Uint32(h[12:]) != crc32.Checksum(h[:12], castagnoli) {
		return fmt.Errorf("%w in section %q header", ErrChecksum, tag)
	}
	if string(h[:4]) != tag {
		return fmt.Errorf("store: section %q: found section %q", tag, h[:4])
	}
	length := le.Uint64(h[4:])
	if length > math.MaxInt64 {
		return fmt.Errorf("store: section %q: length %d", tag, length)
	}
	d.left, d.crc, d.err = int64(length), 0, nil
	body()
	bodyErr := d.err
	if bodyErr == nil && d.left != 0 {
		bodyErr = fmt.Errorf("%d bytes left unread", d.left)
	}
	d.err = nil
	for d.left > 0 && d.err == nil {
		d.read(int(min(d.left, int64(len(d.buf)))))
	}
	var sum [4]byte
	if d.err == nil {
		_, d.err = io.ReadFull(d.br, sum[:])
	}
	switch {
	case d.err != nil:
		return fmt.Errorf("store: section %q: %w", tag, eofIsUnexpected(d.err))
	case le.Uint32(sum[:]) != d.crc:
		return fmt.Errorf("%w in section %q", ErrChecksum, tag)
	case bodyErr != nil:
		return fmt.Errorf("store: section %q: %w", tag, bodyErr)
	}
	return nil
}

func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// read returns the next n payload bytes, or nil after an error. The slice
// is valid until the next read.
func (d *decoder) read(n int) []byte {
	if d.err != nil {
		return nil
	}
	if int64(n) > d.left {
		d.fail(fmt.Errorf("%d bytes needed, %d left", n, d.left))
		return nil
	}
	if n > len(d.buf) {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.br, b); err != nil {
		d.fail(eofIsUnexpected(err))
		return nil
	}
	d.left -= int64(n)
	d.crc = crc32.Update(d.crc, castagnoli, b)
	return b
}

// count reads a uint32 count of elements at least size bytes each, failing
// one the rest of the section cannot hold.
func (d *decoder) count(size int64) int {
	n := int64(d.u32())
	if n*size > d.left {
		d.fail(fmt.Errorf("count %d of %d-byte elements in %d bytes", n, size, d.left))
		return 0
	}
	return int(n)
}

func (d *decoder) bool() bool {
	b := d.read(1)
	if b != nil && b[0] > 1 {
		d.fail(fmt.Errorf("flag %d", b[0]))
	}
	return b != nil && b[0] == 1
}

func (d *decoder) u32() uint32 {
	if b := d.read(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.read(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

// int reads a non-negative count written as a uint64 that fits an int32.
func (d *decoder) int() int {
	x := d.u64()
	if x > math.MaxInt32 {
		d.fail(fmt.Errorf("value %d out of range", x))
		return 0
	}
	return int(x)
}

func (d *decoder) f64s(xs []float64) {
	for len(xs) > 0 && d.err == nil {
		n := min(len(xs), len(d.buf)/8)
		if b := d.read(8 * n); b != nil {
			for i := range xs[:n] {
				xs[i] = math.Float64frombits(le.Uint64(b[8*i:]))
			}
		}
		xs = xs[n:]
	}
}

func (d *decoder) u16s(xs []uint16) {
	for len(xs) > 0 && d.err == nil {
		n := min(len(xs), len(d.buf)/2)
		if b := d.read(2 * n); b != nil {
			for i := range xs[:n] {
				xs[i] = le.Uint16(b[2*i:])
			}
		}
		xs = xs[n:]
	}
}
