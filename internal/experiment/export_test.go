package experiment

import "aspeo/internal/core"

// NewPhaseAwareSession builds spec's controller cell like NewSession,
// but with a phase-aware controller (core.Options.PhaseAware), which
// only the package's own campaigns build: SessionSpec has no field for
// it.
func NewPhaseAwareSession(spec SessionSpec) (*Session, error) {
	r, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	tab, target, err := resolveTableAndTarget(r.app, r.load, spec, func(string, ...any) {})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(tab, target)
	opts.PhaseAware = true
	return newSession(spec, r.app, r.load, &opts, nil)
}

// ReadStoredTable is the stored-table read NewSession resolves a
// spec's Profile through.
var ReadStoredTable = readStoredTable
