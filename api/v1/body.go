package apiv1

import (
	"bytes"
	"io"
	"slices"
)

// maxBodyPrealloc bounds the buffer a declared length buys before any
// of the body arrives (a 2,000-board full push is about 1 MB): a longer
// body grows the buffer as its bytes come, so a peer cannot hold more
// of the reader's heap by declaring a body it never sends.
const maxBodyPrealloc = 1 << 20

// ReadBody reads r to EOF into one buffer sized from declared, the
// body's Content-Length (negative when none was declared), up to
// maxBodyPrealloc. A body without a declared length, or one longer than
// the cap, grows the buffer as it is read. Both ends of the api/v1
// surface read bodies through it: the hub its ingest requests, and
// client/v1 every response, which both tiers send with a
// Content-Length.
func ReadBody(r io.Reader, declared int64) ([]byte, error) {
	size := int64(bytes.MinRead)
	if declared >= 0 {
		size = min(declared, maxBodyPrealloc) + 1 // room to read EOF without growing
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
	}
}
