package hub

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	apiv1 "xvolt/api/v1"
	clientv1 "xvolt/client/v1"
	"xvolt/internal/fleet"
	"xvolt/internal/server"
)

// FuzzFleetSince sends hostile ?since= values to /api/fleet on both
// tiers — a fleet daemon's server and a hub fed by that fleet, as
// TestFleetHubConformance reaches them. A value is either the fuzzed
// string, sent as it is (signs, spaces, overflow, junk), or, when
// relative is set, the tier's own generation plus offset, wrapping (the
// generation ±1, 0, MaxUint64). Each tier may answer only 200, 304 or
// 400, and a 200 must declare its length and hold a document api/v1
// decodes: a delta, or the full table when since is empty.
func FuzzFleetSince(f *testing.F) {
	m, err := fleet.New(fleet.Config{Boards: 6, Seed: 7, ConfirmRuns: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = m.Close() })
	m.Run(12)
	srv := server.New(nil)
	srv.SetFleet(m)
	fleetTS := httptest.NewServer(srv.Handler())
	f.Cleanup(fleetTS.Close)
	hubTS := httptest.NewServer(New().Handler(nil))
	f.Cleanup(hubTS.Close)
	if _, err := NewPusher(clientv1.New(hubTS.URL), "rack", m).Push(context.Background()); err != nil {
		f.Fatal(err)
	}

	for _, s := range []string{"", "0", "1", "18446744073709551615", "18446744073709551616",
		"-1", "+1", " 1", "1 ", "0x10", "1e3", "٣", "1&since=2"} {
		f.Add(s, int64(0), false)
	}
	for _, d := range []int64{-1, 0, 1, -2, 1 << 40, -1 << 63} {
		f.Add("", d, true)
	}
	f.Fuzz(func(t *testing.T, since string, offset int64, relative bool) {
		for _, base := range []string{fleetTS.URL, hubTS.URL} {
			q := since
			if relative {
				full, _ := get(t, base, "/api/fleet")
				gen, err := strconv.ParseUint(full.Header.Get(apiv1.GenerationHeader), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				q = strconv.FormatUint(gen+uint64(offset), 10)
			}
			resp, body := get(t, base, "/api/fleet?since="+url.QueryEscape(q))
			switch resp.StatusCode {
			case http.StatusOK:
				var err error
				if resp.ContentLength != int64(len(body)) {
					t.Errorf("%s since=%q: Content-Length %d for %d bytes", base, q, resp.ContentLength, len(body))
				}
				if q == "" {
					_, err = apiv1.DecodeBoards(body)
				} else {
					_, err = apiv1.DecodeBoardsDelta(body)
				}
				if err != nil {
					t.Errorf("%s since=%q: undecodable 200 body: %v", base, q, err)
				}
			case http.StatusNotModified, http.StatusBadRequest:
			default:
				t.Errorf("%s since=%q: status %d", base, q, resp.StatusCode)
			}
		}
	})
}

// get GETs base+path and reads the whole body.
func get(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
