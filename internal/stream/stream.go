// Package stream implements online near-duplicate monitoring over a video
// stream — the operating mode of the content substrate the paper adopts
// ([35], "Monitoring near duplicates over video streams"). Frames are pushed
// one at a time; the monitor detects shot boundaries online, extracts cuboid
// signatures per completed shot, probes the LSB index of a reference
// library, and raises an alert once enough of a reference's signatures have
// been matched.
package stream

import (
	"math"
	"sort"

	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/video"
)

// Options tunes the monitor.
type Options struct {
	Sig            signature.Options // extraction parameters per shot
	LSB            index.LSBOptions
	MatchThreshold float64 // SimC level for a signature match
	ProbePerSig    int     // LSB candidates examined per stream signature
	AlertMatches   int     // matched signatures before a video is reported
	MaxShotFrames  int     // force a shot boundary after this many frames
}

// DefaultOptions follows the recommendation engine's content defaults.
func DefaultOptions() Options {
	return Options{
		Sig:            signature.DefaultOptions(),
		LSB:            index.DefaultLSBOptions(),
		MatchThreshold: signature.DefaultMatchThreshold,
		ProbePerSig:    24,
		AlertMatches:   3,
		MaxShotFrames:  256,
	}
}

// Match is one signature-level hit against a reference video.
type Match struct {
	VideoID    string
	Similarity float64
	StreamShot int // index of the completed shot that matched
}

// Alert reports that a reference video has accumulated enough matches to be
// considered a near-duplicate of recent stream content.
type Alert struct {
	VideoID      string
	Matches      int
	MeanSimilar  float64
	FirstShot    int
	LastShot     int
	TotalStreamN int // signatures seen on the stream so far
}

// Monitor is the online detector. Not safe for concurrent use.
type Monitor struct {
	opts Options
	lib  *index.LSB

	// The LSB index stores (dense index, signature position) pairs; the
	// monitor keeps every added reference series itself, one dense index
	// per AddReference call, so each entry resolves to the series it was
	// indexed from.
	refs []reference

	buf       []*video.Frame
	prevHist  []float64
	diffs     []float64
	shotCount int
	sigCount  int

	tally   map[string]*tally
	alerted map[string]bool
}

type reference struct {
	id     string
	series signature.Series
}

type tally struct {
	matches int
	simSum  float64
	first   int
	last    int
}

// NewMonitor creates an empty monitor.
func NewMonitor(opts Options) *Monitor {
	if opts.ProbePerSig <= 0 {
		opts = DefaultOptions()
	}
	return &Monitor{
		opts:    opts,
		lib:     index.NewLSB(opts.LSB),
		tally:   map[string]*tally{},
		alerted: map[string]bool{},
	}
}

// AddReference indexes a reference video's signature series. References may
// be added while the stream is running; adding an id again indexes the new
// series beside the old one, and matches against either count for the id.
func (m *Monitor) AddReference(id string, series signature.Series) {
	m.lib.Add(uint32(len(m.refs)), series)
	m.refs = append(m.refs, reference{id: id, series: series})
}

// LibrarySize returns the number of indexed reference signatures.
func (m *Monitor) LibrarySize() int { return m.lib.Len() }

// Push feeds one frame. When the frame closes a shot (histogram cut or
// MaxShotFrames reached), the completed shot is matched against the library
// and any newly crossed alert thresholds are returned.
func (m *Monitor) Push(f *video.Frame) []Alert {
	cut := false
	h := f.Histogram(m.opts.Sig.Cut.Bins)
	if m.prevHist != nil {
		d := video.HistDiff(m.prevHist, h)
		if len(m.buf) >= m.opts.Sig.Cut.MinShotLen && d >= m.opts.Sig.Cut.MinDiff && d > adaptive(m.diffs, m.opts.Sig.Cut) {
			cut = true
		}
		m.diffs = append(m.diffs, d)
		if len(m.diffs) > m.opts.Sig.Cut.Window {
			m.diffs = m.diffs[1:]
		}
	}
	m.prevHist = h

	var alerts []Alert
	if cut || len(m.buf) >= m.opts.MaxShotFrames {
		alerts = m.closeShot()
	}
	m.buf = append(m.buf, f)
	return alerts
}

// Flush closes the currently open shot and returns any resulting alerts.
// Call at end of stream.
func (m *Monitor) Flush() []Alert {
	return m.closeShot()
}

// Alerts returns every alert raised so far, sorted by video id.
func (m *Monitor) Alerts() []Alert {
	var out []Alert
	for id := range m.alerted {
		out = append(out, m.alertFor(id))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].VideoID < out[b].VideoID })
	return out
}

// closeShot extracts signatures from the buffered shot, matches them, and
// returns newly raised alerts.
func (m *Monitor) closeShot() []Alert {
	if len(m.buf) < m.opts.Sig.Cut.MinShotLen {
		m.buf = nil
		return nil
	}
	shot := &video.Video{Frames: m.buf, FPS: 25}
	m.buf = nil
	series := signature.Extract(shot, m.opts.Sig)
	shotIdx := m.shotCount
	m.shotCount++

	var newAlerts []Alert
	for _, sig := range series {
		m.sigCount++
		best := map[string]float64{}
		w := m.lib.NewWalker(signature.Series{sig})
		for probe := 0; probe < m.opts.ProbePerSig; probe++ {
			e, _, ok := w.Next()
			if !ok {
				break
			}
			ref := &m.refs[e.Video]
			if s := signature.SimC(sig, ref.series[e.Ord]); s >= m.opts.MatchThreshold {
				if id := ref.id; s > best[id] {
					best[id] = s
				}
			}
		}
		ids := make([]string, 0, len(best))
		for id := range best {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			t := m.tally[id]
			if t == nil {
				t = &tally{first: shotIdx}
				m.tally[id] = t
			}
			t.matches++
			t.simSum += best[id]
			t.last = shotIdx
			if t.matches >= m.opts.AlertMatches && !m.alerted[id] {
				m.alerted[id] = true
				newAlerts = append(newAlerts, m.alertFor(id))
			}
		}
	}
	return newAlerts
}

func (m *Monitor) alertFor(id string) Alert {
	t := m.tally[id]
	return Alert{
		VideoID:      id,
		Matches:      t.matches,
		MeanSimilar:  t.simSum / float64(t.matches),
		FirstShot:    t.first,
		LastShot:     t.last,
		TotalStreamN: m.sigCount,
	}
}

// adaptive is the same mean+σ·std rule the offline cut detector uses.
func adaptive(diffs []float64, opts video.CutOptions) float64 {
	if len(diffs) == 0 {
		return 0
	}
	var mean float64
	for _, d := range diffs {
		mean += d
	}
	mean /= float64(len(diffs))
	var varsum float64
	for _, d := range diffs {
		varsum += (d - mean) * (d - mean)
	}
	return mean + opts.Sigma*math.Sqrt(varsum/float64(len(diffs)))
}
