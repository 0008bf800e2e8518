package core

// Links exposes a model's rule-3 link counts (heading URL → linked URL
// → count) to the prediction oracle of the external test package.
func Links(m *Model) map[string]map[string]int64 { return m.links }

// MaxLinkPredictions is maxLinkPredictions, for the same oracle.
const MaxLinkPredictions = maxLinkPredictions
