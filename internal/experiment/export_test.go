package experiment

import (
	"aspeo/internal/core"
	"aspeo/internal/workload"
)

// NewPhaseAwareSession builds spec's controller cell like NewSession,
// but with a phase-aware controller (core.Options.PhaseAware), which
// only the package's own campaigns build: SessionSpec has no field for
// it.
func NewPhaseAwareSession(spec SessionSpec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	app, _ := workload.ByName(spec.App)
	bg, _ := workload.ParseBGLoad(spec.Load)
	tab, target, err := resolveTableAndTarget(app, bg, spec, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(tab, target)
	opts.PhaseAware = true
	return newSession(spec, app, bg, &opts, nil)
}

// ReadStoredTable is the stored-table read NewSession resolves a
// spec's Profile through.
var ReadStoredTable = readStoredTable
