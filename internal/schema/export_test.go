package schema

// Mappings returns g's recorded mappings: per source and normalized source
// attribute name, the global attributes in acceptance order.
func Mappings(g *Global) map[[2]string][]string {
	out := make(map[[2]string][]string, len(g.mapped))
	for k, targets := range g.mapped {
		out[[2]string{k.source, k.attr}] = targets
	}
	return out
}
