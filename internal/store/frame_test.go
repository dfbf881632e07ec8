package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// TestFrameWritersMatchWriteFrame: a frame written in two parts, or built
// in a FrameBuf, is the frame WriteFrame writes for the joined payload —
// across the FrameChunk bound, where FrameBuf drops its storage.
func TestFrameWritersMatchWriteFrame(t *testing.T) {
	var fb FrameBuf
	for _, n := range []int{0, 1, 100, FrameChunk, FrameChunk + 1, 10} {
		payload := bytes.Repeat([]byte{byte(n), 7}, n/2+1)[:n]
		var want bytes.Buffer
		if err := WriteFrame(&want, payload); err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, n / 3, n} {
			var got bytes.Buffer
			w := bufio.NewWriter(&got)
			if err := WriteFrameParts(w, payload[:cut], payload[cut:]); err != nil || w.Flush() != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d bytes cut at %d: parts frame differs", n, cut)
			}
		}
		fb.Begin().Write(payload)
		var got bytes.Buffer
		if err := fb.Send(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d bytes: FrameBuf frame differs", n)
		}
		if fb.out.Cap() > FrameChunk {
			t.Fatalf("after a %d-byte frame FrameBuf keeps %d bytes", n, fb.out.Cap())
		}
	}
}

// FuzzReadFrameReuse: a stream read frame by frame through one FrameBuf
// yields exactly the payloads and errors that fresh ReadFrame calls yield,
// and the buffer never keeps more than FrameChunk between frames. The
// seeds hold torn frames, over-length headers, bad CRCs, and a frame past
// FrameChunk followed by a small one.
func FuzzReadFrameReuse(f *testing.F) {
	frames := func(payloads ...[]byte) []byte {
		var b bytes.Buffer
		for _, p := range payloads {
			if err := WriteFrame(&b, p); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	small, mid := []byte("tiny"), bytes.Repeat([]byte("mid"), 300)
	big := bytes.Repeat([]byte{0xab}, FrameChunk+1)
	stream := frames(mid, small, nil, mid)
	f.Add(stream, uint32(0))
	f.Add(stream[:len(stream)-3], uint32(0))                     // torn tail
	f.Add(frames(small, mid, small), uint32(len(mid)-1))         // over-length header mid-stream
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}, uint32(0)) // a claim the input does not hold
	badCRC := frames(mid, small)
	badCRC[len(mid)+8-1] ^= 1
	f.Add(badCRC, uint32(0))
	f.Add(frames(big, small, mid), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, maxLen uint32) {
		fresh := bufio.NewReader(bytes.NewReader(data))
		reused := bufio.NewReader(bytes.NewReader(data))
		var fb FrameBuf
		for {
			want, werr := ReadFrame(fresh, maxLen)
			got, gerr := fb.Read(reused, maxLen)
			if !bytes.Equal(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("reused read %d bytes, %v; fresh read %d bytes, %v", len(got), gerr, len(want), werr)
			}
			if cap(fb.in) > FrameChunk {
				t.Fatalf("FrameBuf keeps %d bytes between frames", cap(fb.in))
			}
			if werr == io.EOF {
				return
			}
		}
	})
}
