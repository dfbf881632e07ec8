// Expertsourcing demonstrates the human-in-the-loop side of schema
// integration (Fig. 2): uncertain attribute matches are routed to a pool of
// simulated domain experts, answered redundantly, and resolved by
// confidence-weighted vote.
package main

import (
	"fmt"
	"log"

	"repro/internal/datagen"
	"repro/internal/expert"
	"repro/internal/match"
	"repro/internal/schema"
)

func main() {
	log.SetFlags(0)

	// Build a global schema from the first structured source, then match a
	// second source against it with a deliberately strict threshold so some
	// attributes land in the review band.
	sources := datagen.GenerateFTables(datagen.FTablesConfig{Sources: 5, Seed: 2})
	engine := match.NewEngine()
	engine.AcceptThreshold = 0.95 // strict: force expert review

	global := schema.NewGlobal()
	first := schema.FromSource(sources[0])
	rep := engine.MatchSource(first, global)
	if _, err := engine.Integrate(rep, global); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global schema initialized from %s: %d attributes\n\n", sources[0].Name, global.Len())

	second := schema.FromSource(sources[1])
	rep2 := engine.MatchSource(second, global)
	fmt.Print(rep2.FormatReport())
	review, err := engine.Integrate(rep2, global)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d attributes need expert review\n\n", len(review))

	// Route the review-band matches to the expert pool.
	pool := expert.NewPool(
		expert.NewSimulated("curator", 0.95, map[string]float64{"schema": 0.98}, 11),
		expert.NewSimulated("analyst", 0.85, nil, 12),
		expert.NewSimulated("intern", 0.65, nil, 13),
	)
	for _, m := range review {
		res, err := pool.ProcessWithEscalation(expert.Task{
			Domain:  "schema",
			Options: []string{m.Best().Target, "(new attribute)"},
			Truth:   m.Best().Target, // simulation ground truth
		})
		if err != nil {
			log.Fatal(err)
		}
		d := res.Decision
		fmt.Printf("expert decision: %-20s -> %-20s (confidence %.2f, %d votes)\n",
			m.Attr.Name, d.Answer, d.Confidence, len(d.Responses))
		if target, ok := global.Attribute(d.Answer); ok {
			if err := global.MapAttribute(m.Attr, sources[1].Name, target); err != nil {
				log.Fatal(err)
			}
		} else {
			global.AddAttribute(m.Attr, sources[1].Name)
		}
	}

	fmt.Println("\nexpert workload:")
	for _, e := range pool.Experts() {
		fmt.Printf("  %-10s answered %d questions\n", e.Name(), pool.Asked(e.Name()))
	}
	fmt.Printf("\nfinal global schema: %d attributes\n", global.Len())
}
