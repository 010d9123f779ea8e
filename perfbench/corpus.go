package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"

	"ocas/internal/plan"
)

// The request corpus: the six examples/*/request.json files plus request
// forms of the Table 1 rows of internal/experiments (same programs,
// hierarchies, depth and space at the experiments' default scale). The
// Table 1 external-sort row is absent: its input is a list of sorted runs,
// which a request (int lists and pairs only) cannot place.
//
//go:embed corpus/*.json
var corpusFS embed.FS

// entry is one corpus request.
type entry struct {
	Name string
	Req  plan.Request
	// Product marks a relational product (no join predicate): its
	// execution output is |R|·|S| rows, so executions pin R at productR
	// rows and put only S on the size ladder.
	Product bool
	// Join marks a program over the two relations R and S (the joins and
	// products): its template instantiation costs about as much as a cold
	// search, so synth-mix times its template requests.
	Join bool
}

const productR = 64

func loadCorpus() ([]*entry, error) {
	files, err := corpusFS.ReadDir("corpus")
	if err != nil {
		return nil, err
	}
	var out []*entry
	for _, f := range files {
		data, err := corpusFS.ReadFile(path.Join("corpus", f.Name()))
		if err != nil {
			return nil, err
		}
		var req plan.Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("corpus %s: %w", f.Name(), err)
		}
		name := strings.TrimSuffix(f.Name(), ".json")
		_, hasR := req.Inputs["R"]
		_, hasS := req.Inputs["S"]
		product := hasR && hasS && !strings.Contains(req.Program, "==")
		out = append(out, &entry{Name: name, Req: req, Product: product, Join: hasR && hasS})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// byName indexes the corpus.
func byName(c []*entry) map[string]*entry {
	m := make(map[string]*entry, len(c))
	for _, e := range c {
		m[e.Name] = e
	}
	return m
}

// clone copies a request's input map, the one part callers change in
// place (setRAM replaces the hierarchy bytes instead of editing them), so a
// stream can vary sizes without touching the corpus.
func clone(r plan.Request) plan.Request {
	r.Inputs = maps.Clone(r.Inputs)
	return r
}

// ramOf returns the RAM size of a request: the built-in hierarchy's RAM
// field, or the size of the inline hierarchy's node named "ram".
func ramOf(r plan.Request) int64 {
	if r.Hierarchy == nil {
		return r.RAM
	}
	var n hierNode
	if err := json.Unmarshal(r.Hierarchy, &n); err != nil {
		return 0
	}
	if m := n.find("ram"); m != nil {
		if v, ok := m["size"].(float64); ok {
			return int64(v)
		}
	}
	return 0
}

// setRAM returns r with its RAM size replaced.
func setRAM(r plan.Request, ram int64) (plan.Request, error) {
	if r.Hierarchy == nil {
		r.RAM = ram
		return r, nil
	}
	var n hierNode
	if err := json.Unmarshal(r.Hierarchy, &n); err != nil {
		return r, err
	}
	m := n.find("ram")
	if m == nil {
		return r, fmt.Errorf("inline hierarchy has no ram node")
	}
	m["size"] = ram
	b, err := json.Marshal(n)
	if err != nil {
		return r, err
	}
	r.Hierarchy = b
	return r, nil
}

// hierNode is an inline hierarchy node kept as generic JSON, so that
// editing one size leaves every other field as written.
type hierNode map[string]any

func (n hierNode) find(name string) hierNode {
	if n["name"] == name {
		return n
	}
	kids, _ := n["children"].([]any)
	for _, k := range kids {
		if m, ok := k.(map[string]any); ok {
			if f := hierNode(m).find(name); f != nil {
				return f
			}
		}
	}
	return nil
}

// inputNames lists a request's inputs in the order the executor numbers
// them (sorted by name; input i's generator seed is seed + i*7919).
func inputNames(r plan.Request) []string {
	names := make([]string, 0, len(r.Inputs))
	for n := range r.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
