package video

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// A tiny raw clip container (".vv"): fixed header, length-prefixed id, then
// frames as rows of uint8 intensities. It stands in for real codecs so
// clips can live on disk and stream through the CLI and server without any
// external decoder. Quantization to 8 bits matches the signature pipeline's
// intensity domain exactly.

const codecMagic = "VRECVID1"

// The largest clip the codec, and every other decoder of clips, accepts: at
// most MaxFrames frames, neither side of a frame above MaxFrameSide.
const (
	MaxFrameSide = 1 << 14
	MaxFrames    = 1 << 22
)

// Codec errors.
var (
	ErrCodecMagic    = errors.New("video: not a vrec clip file")
	ErrCodecCorrupt  = errors.New("video: corrupt clip file")
	ErrCodecNoFrames = errors.New("video: clip has no frames to encode")
)

// Encode writes the video to w. Frames must all share one size.
func Encode(w io.Writer, v *Video) error {
	if len(v.Frames) == 0 {
		return ErrCodecNoFrames
	}
	fw, fh := v.Frames[0].W, v.Frames[0].H
	for i, f := range v.Frames {
		if f.W != fw || f.H != fh {
			return fmt.Errorf("video: frame %d is %dx%d, first frame is %dx%d", i, f.W, f.H, fw, fh)
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if err := writeString(bw, v.ID); err != nil {
		return err
	}
	hdr := []any{
		uint32(fw), uint32(fh), uint32(len(v.Frames)),
		math.Float64bits(v.FPS), math.Float64bits(v.NominalSeconds),
	}
	for _, x := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, x); err != nil {
			return err
		}
	}
	row := make([]byte, fw*fh)
	for _, f := range v.Frames {
		for i, p := range f.Pix {
			row[i] = uint8(clamp(math.Round(p)))
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a video from r.
func Decode(r io.Reader) (*Video, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecMagic, err)
	}
	if string(head) != codecMagic {
		return nil, ErrCodecMagic
	}
	id, err := readString(br)
	if err != nil {
		return nil, fmt.Errorf("%w: id: %v", ErrCodecCorrupt, err)
	}
	var fw, fh, n uint32
	var fpsBits, nomBits uint64
	for _, dst := range []any{&fw, &fh, &n, &fpsBits, &nomBits} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrCodecCorrupt, err)
		}
	}
	if fw == 0 || fh == 0 || fw > MaxFrameSide || fh > MaxFrameSide || n == 0 || n > MaxFrames {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%dx%d", ErrCodecCorrupt, fw, fh, n)
	}
	v := &Video{
		ID:             id,
		FPS:            math.Float64frombits(fpsBits),
		NominalSeconds: math.Float64frombits(nomBits),
	}
	row := make([]byte, int(fw)*int(fh))
	for i := 0; i < int(n); i++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("%w: frame %d: %v", ErrCodecCorrupt, i, err)
		}
		f := NewFrame(int(fw), int(fh))
		for p, b := range row {
			f.Pix[p] = float64(b)
		}
		v.Frames = append(v.Frames, f)
	}
	return v, nil
}

// WriteFile encodes the video to a file.
func WriteFile(path string, v *Video) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes a video from a file.
func ReadFile(path string) (*Video, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

func writeString(w *bufio.Writer, s string) error {
	if len(s) > 1<<16 {
		return fmt.Errorf("video: id too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
