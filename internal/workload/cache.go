package workload

import (
	"container/list"
	"sync"

	"repro/internal/program"
)

// imageCacheCap bounds the process-global image cache. It holds the paper's
// 13 benchmarks × 6 inputs (five training inputs plus the evaluation input)
// = 78 images with room to spare, so regenerating every artifact never
// rebuilds a program, while a server assembling a fresh image per request
// keeps at most this many alive (an image costs ~0.3 MB).
const imageCacheCap = 128

// cachedImage is one memoized image and its lazily computed content
// fingerprint. Entries FingerprintOf creates for images Build did not make
// (submitted programs) have the zero key, which no Build can produce.
type cachedImage struct {
	key  progKey
	prog *program.Program

	fpOnce sync.Once
	fp     string
	fpErr  error
}

// fingerprint returns the image's fingerprint, hashing it on first use.
func (c *cachedImage) fingerprint() (string, error) {
	c.fpOnce.Do(func() { c.fp, c.fpErr = Fingerprint(c.prog) })
	return c.fp, c.fpErr
}

// imageLRU is a fixed-capacity least-recently-used cache of images,
// indexed both by build key and by image identity, so Build and
// FingerprintOf share one bounded set of entries: evicting an image drops
// its fingerprint with it.
type imageLRU struct {
	mu     sync.Mutex
	order  list.List // of *cachedImage, most recently used first
	byKey  map[progKey]*list.Element
	byProg map[*program.Program]*list.Element
}

var images = &imageLRU{
	byKey:  map[progKey]*list.Element{},
	byProg: map[*program.Program]*list.Element{},
}

// lookup returns the image built for key, if cached.
func (c *imageLRU) lookup(key progKey) (*program.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*cachedImage).prog, true
}

// add caches p under key and returns the cached image: p itself, or the
// image a concurrent Build of the same key stored first.
func (c *imageLRU) add(key progKey, p *program.Program) *program.Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*cachedImage).prog
	}
	c.insert(&cachedImage{key: key, prog: p})
	return p
}

// entry returns the cache entry of image p, adding a key-less one when p is
// not cached.
func (c *imageLRU) entry(p *program.Program) *cachedImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byProg[p]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*cachedImage)
	}
	ci := &cachedImage{prog: p}
	c.insert(ci)
	return ci
}

// insert adds a new entry at the front, evicting the least recently used
// one past capacity. c.mu must be held.
func (c *imageLRU) insert(ci *cachedImage) {
	e := c.order.PushFront(ci)
	c.byProg[ci.prog] = e
	if ci.key.name != "" {
		c.byKey[ci.key] = e
	}
	if c.order.Len() > imageCacheCap {
		old := c.order.Remove(c.order.Back()).(*cachedImage)
		delete(c.byProg, old.prog)
		if old.key.name != "" {
			delete(c.byKey, old.key)
		}
	}
}

// len reports the number of cached images.
func (c *imageLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
