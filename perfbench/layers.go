package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json that names what a run prints: the
// end-to-end metrics of an untraced run and the per-layer metrics of a
// traced one, each with its unit. Printing from the file keeps the output
// and the gate from disagreeing.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s names no end_to_end or no per_layer metrics", path)
	}
	return sp, nil
}

// pick takes from values every metric list names, with list's unit. A
// name with no value is an error when required (an end-to-end metric
// every workload measures) and reads 0 otherwise (a layer the workload
// does not run).
func pick(list []specMetric, values map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("the benchmark does not measure %q", m.Name)
		}
		out[m.Name] = metric{v, m.Unit}
	}
	return out, nil
}

// readRoutes are the dashboard mix's routes as the handler wrapper names
// them.
var readRoutes = []string{"delta", "health", "events"}

// readPathLayers derives a daemon's read-route metrics (layer is
// "server" or "hub") from its handler spans.
func readPathLayers(out map[string]float64, a *breakdown, layer string) {
	var n, notModified int
	var bytes float64
	for _, route := range readRoutes {
		name := layer + "." + route
		out[name+"_us"] = a.stat(name).meanUS()
		if s := a.stat(name); s != nil {
			n += s.n
		}
		notModified += a.attrCount(name, "code", "304")
		bytes += a.attrSum(name, "bytes")
	}
	if n > 0 {
		out[layer+".not_modified_frac"] = float64(notModified) / float64(n)
		out[layer+".bytes_per_request"] = bytes / float64(n)
	}
}

// clientLayers derives the client/v1 metrics: the round trip (response
// body included), the decode time left in each call beyond it, and the
// retries (round trips beyond one per call).
func clientLayers(out map[string]float64, a *breakdown, trips int64) {
	out["client.roundtrip_us"] = a.stat("client.roundtrip").meanUS()
	var selfUS float64
	var calls int
	for _, t := range fleetMix() {
		if s := a.stat("client." + t.Name); s != nil {
			selfUS += float64(s.self.Microseconds())
			calls += s.n
		}
	}
	if calls > 0 {
		out["client.decode_us"] = selfUS / float64(calls)
		out["client.retries"] = float64(trips - int64(calls))
	}
}

// blockLen is the number of requests in one mix block.
func blockLen() int {
	n := 0
	for _, t := range fleetMix() {
		n += t.Weight
	}
	return n
}
