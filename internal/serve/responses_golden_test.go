package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// updateResponses regenerates testdata/responses.golden:
//
//	go test ./internal/serve -run TestResponsesMatchParentGolden -update-responses
//
// The checked-in file was written by the map-built handlers the read model
// replaced, before the read model existed; never regenerate it to make a
// handler change pass.
var updateResponses = flag.Bool("update-responses", false, "regenerate testdata/responses.golden")

// volatileFields are the response fields read off the wall clock at
// publication or at response time; the golden masks their values.
var volatileFields = []*regexp.Regexp{
	regexp.MustCompile(`("(?:modeled_at|accepted_at)": )"[^"]*"`),
	regexp.MustCompile(`("(?:age_seconds|model_age_seconds)": )[-+0-9.eE]+`),
}

func maskVolatile(b []byte) []byte {
	for _, re := range volatileFields {
		b = re.ReplaceAll(b, []byte(`${1}"<masked>"`))
	}
	return b
}

// Every query response body, byte for byte, over a fixed script: before the
// first model, after two generations (the second with a spiked tower), the
// SSE payloads the second publication pushed, and after a rollback. Only the
// clock-derived fields are masked.
func TestResponsesMatchParentGolden(t *testing.T) {
	city, series := testCity(t, 36, 21)
	w := newTestWindow(t, city, 14)
	cfg := testConfig(city, w)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	var out bytes.Buffer
	call := func(method, path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		body := maskVolatile(rec.Body.Bytes())
		fmt.Fprintf(&out, "=== %s %s -> %d %s\n%s", method, path, rec.Code, rec.Header().Get("Content-Type"), body)
		return rec.Body.Bytes()
	}

	// Nothing published yet.
	call("GET", "/healthz")
	call("GET", "/summary")
	call("GET", "/towers")
	call("GET", "/towers/1")
	call("GET", "/models")
	call("POST", "/models/rollback")

	feedDays(w, city, series, 0, 15, nil)
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	spd := city.Config.SlotsPerDay()
	spiked := series[3].TowerID
	feedDays(w, city, series, 15, 17, func(towerID, absSlot int, bytes float64) float64 {
		if towerID == spiked && absSlot/spd == 15 && absSlot%spd >= spd/2 && absSlot%spd < spd/2+4 {
			return bytes*30 + 2e6
		}
		return bytes
	})
	events, ok := srv.broker.subscribe()
	if !ok {
		t.Fatal("subscribe refused")
	}
	if err := srv.RemodelNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.broker.unsubscribe(events)
	for drained := false; !drained; {
		select {
		case payload := <-events:
			fmt.Fprintf(&out, "=== SSE anomaly\n%s\n", maskVolatile(payload))
		default:
			drained = true
		}
	}

	call("GET", "/healthz")
	call("GET", "/readyz")
	call("GET", "/summary")
	var listing struct {
		Towers []struct {
			Tower     int `json:"tower"`
			Anomalies int `json:"anomalies"`
		} `json:"towers"`
	}
	if err := json.Unmarshal(call("GET", "/towers"), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Towers) < 3 {
		t.Fatalf("/towers lists %d towers", len(listing.Towers))
	}
	ids := []int{listing.Towers[0].Tower, listing.Towers[len(listing.Towers)-1].Tower, spiked}
	for _, id := range ids {
		call("GET", fmt.Sprintf("/towers/%d", id))
	}
	call("GET", fmt.Sprintf("/towers/%d?threshold=3", spiked))
	call("GET", fmt.Sprintf("/towers/%d?threshold=2&min_rel_dev=off", ids[0]))
	call("GET", fmt.Sprintf("/towers/%d?threshold=five", ids[0]))
	call("GET", "/towers/999999")
	call("GET", "/towers/abc")
	call("GET", "/models")
	call("POST", "/models/rollback?to=abc")
	call("POST", "/models/rollback")
	call("GET", "/summary")
	call("GET", fmt.Sprintf("/towers/%d", spiked))
	call("GET", "/models")

	path := filepath.Join("testdata", "responses.golden")
	if *updateResponses {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("responses differ from %s\n%s", path, firstDiff(out.Bytes(), want))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "lengths differ"
}
