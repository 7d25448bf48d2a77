package core

// ExecuteCampaigns runs an explicit campaign list (one benchmark pinned
// per core, Figure 9 style) and returns its run records in list order.
// Production reads campaign lists through CharacterizeCampaigns; the
// record form stays for the tests that compare lists with the sequential
// Framework.
func (r *LadderRunner) ExecuteCampaigns(cfg Config, grid []Campaign) ([]RunRecord, error) {
	if err := checkCampaigns(cfg, grid); err != nil {
		return nil, err
	}
	return r.executeFlat(cfg, grid)
}
