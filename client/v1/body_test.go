package clientv1

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"xvolt/internal/fleet"
	"xvolt/internal/server"
)

// rawServer answers every request with raw, the bytes of a response
// head and whatever of its body the peer sends, and then closes the
// connection.
func rawServer(t *testing.T, raw string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = buf.WriteString(raw)
		_ = buf.Flush()
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDeclaredLengthNotSent: a peer that declares a body it does not
// send — a terabyte, or more bytes than follow before it closes — gets
// an error back, holds at most the 1 MiB a declared length buys of the
// client's heap (plus the exchange's own allocations), and does not
// hang the call.
func TestDeclaredLengthNotSent(t *testing.T) {
	head := "HTTP/1.1 200 OK\r\nContent-Type: application/json; charset=utf-8\r\nX-Fleet-Generation: 3\r\n"
	for _, c := range []struct{ name, raw string }{
		{"terabyte", head + "Content-Length: 1099511627776\r\n\r\n{\"generation\": 3, \"since\": 1, \"boards\": ["},
		{"short", head + "Content-Length: 4096\r\n\r\n{\"generation\": 3, \"since\": 1, \"boards\": []}"},
	} {
		t.Run(c.name, func(t *testing.T) {
			c := New(rawServer(t, c.raw).URL, WithRetries(0))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := c.FleetDelta(ctx, 1)
			runtime.ReadMemStats(&after)
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("FleetDelta = %+v, %v; want a read error before the deadline", d, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+256<<10 {
				t.Errorf("allocated %d bytes reading a body that never came", alloc)
			}
		})
	}
}

// TestBodyReadAtDeclaredLength: a response body the server declares is
// read into one buffer of that size, not grown from 512 bytes.
func TestBodyReadAtDeclaredLength(t *testing.T) {
	m, err := fleet.New(fleet.Config{Boards: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Run(64)
	s := server.New(nil)
	s.SetFleet(m)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	r, err := New(ts.URL).once(context.Background(), "/api/fleet?since=0", nil, false)
	if err != nil || r.status != http.StatusOK {
		t.Fatalf("delta: %d, %v", r.status, err)
	}
	if len(r.body) < 8<<10 || cap(r.body) != len(r.body)+1 {
		t.Errorf("a %d-byte body was read into a %d-byte buffer, want one byte more", len(r.body), cap(r.body))
	}
}

// servedDelta is a fleet whose /api/fleet?since= answers one stitched
// delta for every since, so a benchmark times the client and the
// transport, not the stitch.
type servedDelta struct {
	server.FleetReader
	gen  uint64
	body []byte
}

func (f servedDelta) BoardsDeltaJSON(uint64) (uint64, []byte, error) { return f.gen, f.body, nil }

// BenchmarkClientFleetDelta times a dashboard reader's delta read over
// loopback: client/v1 FleetDelta against server.FleetAPI behind
// httptest, which serves the same 32-board delta (≈13 kB) every op. One
// op is one request, its body read and its decode; B/op includes
// net/http's allocations on both ends.
func BenchmarkClientFleetDelta(b *testing.B) {
	m, err := fleet.New(fleet.Config{Boards: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	m.Run(64)
	gen, body, err := m.BoardsDeltaJSON(0)
	if err != nil {
		b.Fatal(err)
	}
	api := server.NewFleetAPI("fleet", servedDelta{FleetReader: m, gen: gen, body: body})
	ts := httptest.NewServer(http.HandlerFunc(api.ServeBoards))
	defer ts.Close()
	c := New(ts.URL)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := c.FleetDelta(ctx, 0)
		if err != nil || d == nil || len(d.Boards) != 32 {
			b.Fatalf("FleetDelta = %v, %v; want 32 boards", d, err)
		}
	}
	b.ReportMetric(float64(len(body)), "B/resp")
}
