package controlplane

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// FileStore wraps MemStore with a JSON journal on disk, giving the control
// plane the durable state the paper requires: a restarted control plane
// loads the journal and resumes every in-flight recommendation (§4's
// "persistent, highly-available data store", stood in by a local file).
type FileStore struct {
	*MemStore
	mu   sync.Mutex
	path string
}

// fileStoreImage is the serialised form.
type fileStoreImage struct {
	Records   []*Record        `json:"records"`
	Databases []*DatabaseState `json:"databases"`
	Incidents []Incident       `json:"incidents"`
}

// NewFileStore opens (or creates) a journal-backed store at path.
func NewFileStore(path string) (*FileStore, error) {
	fs := &FileStore{MemStore: NewMemStore(), path: path}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return fs, nil
	case err != nil:
		return nil, fmt.Errorf("controlplane: reading journal: %w", err)
	}
	var img fileStoreImage
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("controlplane: corrupt journal %s: %w", path, err)
	}
	for _, r := range img.Records {
		fs.MemStore.SaveRecord(r)
	}
	for _, d := range img.Databases {
		fs.MemStore.SaveDatabase(d)
	}
	for _, i := range img.Incidents {
		fs.MemStore.SaveIncident(i)
	}
	return fs, nil
}

// flush writes the full image atomically (write temp + rename).
func (fs *FileStore) flush() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	img := fileStoreImage{
		Records:   fs.MemStore.Records(nil),
		Databases: fs.MemStore.Databases(),
		Incidents: fs.MemStore.Incidents(),
	}
	data, err := json.MarshalIndent(img, "", " ")
	if err != nil {
		return err
	}
	tmp := fs.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, fs.path)
}

// SaveRecord implements Store with write-through persistence.
func (fs *FileStore) SaveRecord(r *Record) error {
	if err := fs.MemStore.SaveRecord(r); err != nil {
		return err
	}
	return fs.flush()
}

// SaveDatabase implements Store with write-through persistence.
func (fs *FileStore) SaveDatabase(d *DatabaseState) error {
	if err := fs.MemStore.SaveDatabase(d); err != nil {
		return err
	}
	return fs.flush()
}

// SaveIncident implements Store with write-through persistence.
func (fs *FileStore) SaveIncident(i Incident) error {
	if err := fs.MemStore.SaveIncident(i); err != nil {
		return err
	}
	return fs.flush()
}

var _ Store = (*FileStore)(nil)
