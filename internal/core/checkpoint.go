package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"xvolt/internal/units"
)

// Checkpoint persists a characterization campaign's progress so that a
// multi-month study (the paper's ran for six months on one machine, §3.2)
// survives interruption: completed (benchmark, core) sweeps are recorded
// with their raw run logs and skipped on resume.
type Checkpoint struct {
	// Version guards the on-disk format.
	Version int `json:"version"`
	// Done lists the completed campaign keys ("chip/benchmark/input/core/freq").
	Done []string `json:"done"`
	// Records holds the raw execution-phase log of the completed sweeps.
	Records []RunRecord `json:"records"`
}

// checkpointVersion is the current format version.
const checkpointVersion = 1

// campaignKey identifies one (benchmark, core) sweep within a configuration.
func campaignKey(chip, bench, input string, core int, freq units.MegaHertz) string {
	return fmt.Sprintf("%s/%s/%s/%d/%d", chip, bench, input, core, int(freq))
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{Version: checkpointVersion}
}

// Save serializes the checkpoint as JSON.
func (c *Checkpoint) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(c)
}

// LoadCheckpoint parses a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d unsupported", c.Version)
	}
	return &c, nil
}

// has reports whether a campaign is already completed.
func (c *Checkpoint) has(key string) bool {
	for _, k := range c.Done {
		if k == key {
			return true
		}
	}
	return false
}

// mark records a completed campaign with its raw records.
func (c *Checkpoint) mark(key string, recs []RunRecord) {
	if c.has(key) {
		return
	}
	c.Done = append(c.Done, key)
	c.Records = append(c.Records, recs...)
}

// ExecuteResumable runs the execution phase like Execute, but skips every
// (benchmark, core) sweep already present in ckpt, runs the rest on the
// worker pool, and folds each new sweep into ckpt in grid order. The
// returned records are the checkpoint's full set (old + new), so Parse
// over them reconstructs the whole study. Per-campaign seeding makes a
// resumed study identical to an uninterrupted one: skipping completed
// sweeps never shifts the RNG stream of the remaining campaigns. The
// caller persists ckpt (Save) after the call.
func (r *LadderRunner) ExecuteResumable(cfg Config, ckpt *Checkpoint) ([]RunRecord, error) {
	if ckpt == nil {
		return nil, errors.New("core: nil checkpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r.pool == nil {
		return nil, errors.New("core: runner has no machine factory")
	}
	// Campaign keys name the chip, which only a board knows.
	wm := r.pool.Get()
	chip := wm.Chip().Name
	r.pool.Put(wm)

	var pending []Campaign
	var keys []string
	for _, c := range cfg.Grid() {
		if key := campaignKey(chip, c.Spec.Name, c.Spec.Input, c.Core, cfg.Frequency); !ckpt.has(key) {
			pending = append(pending, c)
			keys = append(keys, key)
		}
	}
	out, err := r.executeGrid(cfg, pending)
	if err != nil {
		return nil, err
	}
	for i, recs := range out {
		ckpt.mark(keys[i], recs)
	}
	return append([]RunRecord(nil), ckpt.Records...), nil
}
