package fleet

import (
	"fmt"

	"aspeo/internal/scenario"
)

// ConfigFromSession converts one compiled scenario session into a fleet
// session config. The generated workload rides inline (Config.Workload);
// nothing about the session references the scenario afterwards, so the
// config checkpoints, restores and restarts like any hand-submitted one.
func ConfigFromSession(g *scenario.Session) Config {
	return Config{
		App:             g.App.Name,
		Cohort:          g.Cohort,
		ArrivalS:        g.ArrivalS,
		StormPeriodS:    g.StormPeriodS,
		StormBurstS:     g.StormBurstS,
		Workload:        g.App,
		ExtraBackground: g.ExtraBackground,
		Load:            g.Load,
		Governor:        g.Governor,
		Controller:      g.Controller,
		CPUOnly:         g.CPUOnly,
		TargetGIPS:      g.TargetGIPS,
		Quick:           g.Quick,
		Seed:            g.Seed,
		Faults:          g.Faults,
		RunForS:         g.RunForS,
		MaxRestarts:     g.MaxRestarts,
	}
}

// SubmitScenario submits every session of a compiled scenario, in
// arrival order. Acceptance is all-or-error-at-the-boundary like the
// HTTP submit fan-out: the views of the sessions that landed are
// returned alongside the error that stopped intake, so a partially
// accepted scenario is reported honestly.
func (m *Manager) SubmitScenario(g *scenario.Generated) ([]SessionView, error) {
	views := make([]SessionView, 0, len(g.Sessions))
	for i := range g.Sessions {
		cfg := ConfigFromSession(&g.Sessions[i])
		v, err := m.Submit(cfg)
		if err != nil {
			return views, fmt.Errorf("scenario %s session %d: %w", g.Name, i, err)
		}
		views = append(views, v)
	}
	return views, nil
}
