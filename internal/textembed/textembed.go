// Package textembed is a deterministic text-embedding model standing in for
// the OpenAI text-embedding-3-large endpoint the paper's SynthRAG uses for
// user-manual retrieval. Texts are embedded as L2-normalized TF-IDF vectors
// of hashed word unigrams and bigrams: lexically and topically similar texts
// land close in cosine space, which is all the manual-retrieval path needs.
package textembed

import (
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/tensor"
)

// Embedder converts text to fixed-dimension vectors. Fit learns IDF weights
// from a corpus; Embed works before Fit too (all-ones IDF).
type Embedder struct {
	Dim  int
	idf  map[uint32]float64
	docs int
}

// New creates an embedder with the given output dimensionality.
func New(dim int) *Embedder {
	if dim <= 0 {
		dim = 256
	}
	return &Embedder{Dim: dim, idf: make(map[uint32]float64)}
}

// tokenize lowercases and splits text into word tokens, treating
// punctuation (except dashes/underscores, significant in command names)
// as separators.
func tokenize(text string) []string {
	text = strings.ToLower(text)
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-':
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	out := toks[:0]
	for _, t := range toks {
		s := stem(t)
		if stopwords[s] || len(s) < 2 {
			continue
		}
		out = append(out, s)
	}
	return out
}

// stopwords are dropped before hashing: in small corpora their IDF is
// unreliably high and they drown out topical tokens.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "and": true, "or": true, "of": true,
	"to": true, "on": true, "in": true, "at": true, "by": true, "for": true,
	"with": true, "it": true, "it'": true, "thi": true, "that": true, "is": true,
	"are": true, "be": true, "as": true, "do": true, "doe": true, "how": true,
	"what": true, "when": true, "i": true, "you": true, "us": true, "from": true,
	"into": true, "not": true, "no": true, "can": true, "will": true, "ha": true,
	"have": true, "than": true, "then": true, "so": true, "but": true,
}

// stem applies light suffix stripping so inflections ("retiming"/"retime",
// "registers"/"register") share a token. Command names containing '_' are
// left untouched.
func stem(t string) string {
	if strings.ContainsAny(t, "_-") {
		return t
	}
	if len(t) > 5 && strings.HasSuffix(t, "ing") {
		t = t[:len(t)-3]
	} else if len(t) > 4 && strings.HasSuffix(t, "ed") {
		t = t[:len(t)-2]
	} else if len(t) > 3 && strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss") {
		t = t[:len(t)-1]
	}
	if len(t) > 4 && strings.HasSuffix(t, "e") {
		t = t[:len(t)-1]
	}
	return t
}

// features yields the hashed unigram and bigram buckets of a text.
// Compound tokens (command names like set_max_fanout) also contribute their
// underscore-separated parts, so near-miss command names still retrieve the
// right section.
func (e *Embedder) features(text string) map[uint32]float64 {
	toks := tokenize(text)
	tf := make(map[uint32]float64)
	for i, t := range toks {
		tf[e.bucket(t)]++
		if i+1 < len(toks) {
			tf[e.bucket(t+" "+toks[i+1])] += 0.5
		}
		if strings.ContainsAny(t, "_-") {
			for _, part := range strings.FieldsFunc(t, func(r rune) bool { return r == '_' || r == '-' }) {
				part = stem(part)
				if len(part) >= 2 && !stopwords[part] {
					tf[e.bucket(part)] += 0.5
				}
			}
		}
	}
	return tf
}

func (e *Embedder) bucket(token string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(token))
	return h.Sum32() % uint32(e.Dim)
}

// Fit learns IDF weights from a document corpus.
func (e *Embedder) Fit(corpus []string) {
	df := make(map[uint32]int)
	for _, doc := range corpus {
		seen := make(map[uint32]bool)
		for b := range e.features(doc) {
			if !seen[b] {
				seen[b] = true
				df[b]++
			}
		}
	}
	e.docs = len(corpus)
	e.idf = make(map[uint32]float64, len(df))
	for b, n := range df {
		e.idf[b] = math.Log(float64(1+e.docs) / float64(1+n))
	}
}

// Embed converts text to an L2-normalized vector.
func (e *Embedder) Embed(text string) []float64 {
	vec := make([]float64, e.Dim)
	for b, tf := range e.features(text) {
		w := 1.0
		if e.docs > 0 {
			if idf, ok := e.idf[b]; ok {
				w = idf
			} else {
				w = math.Log(float64(1 + e.docs))
			}
		}
		vec[b] += (1 + math.Log(1+tf)) * w
	}
	return tensor.Normalize(vec)
}

// Similarity returns the cosine similarity of two texts under this embedder.
func (e *Embedder) Similarity(a, b string) float64 {
	return tensor.Cosine(e.Embed(a), e.Embed(b))
}
