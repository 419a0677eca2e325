package robustore

// This file is the public facade over the library's internal
// packages: the working RobuSTore client/server stack and the
// simulation harness. Downstream code inside this module uses these
// re-exports; the internal packages stay free to evolve.

import (
	"repro/internal/blockstore"
	"repro/internal/experiments"
	"repro/internal/metadata"
	"repro/internal/robust"
	"repro/internal/transport"
)

// Core client types.
type (
	// Client is the RobuSTore client: rateless speculative writes,
	// speculative fan-out reads with decoder-driven cancellation,
	// locality-aware updates.
	Client = robust.Client
	// Options configure a Client (redundancy, block and chunk size,
	// per-server and per-zone share caps, degraded writes, metrics and
	// failure detector).
	Options = robust.Options
	// WriteStats and ReadStats report per-access behaviour.
	WriteStats = robust.WriteStats
	ReadStats  = robust.ReadStats
	// SegmentInfo is the public view of a stored object.
	SegmentInfo = robust.SegmentInfo
	// Store is the block-level storage-server interface.
	Store = blockstore.Store
	// MetadataService tracks segments, placements, and locks.
	MetadataService = metadata.Service
	// Metadata is the metadata-service interface (in-process or
	// remote).
	Metadata = metadata.API
	// ServerInfo describes a registered storage server.
	ServerInfo = metadata.Server
)

// Re-exported sentinel errors.
var (
	ErrUnrecoverable = robust.ErrUnrecoverable
	ErrNoServers     = robust.ErrNoServers
	ErrNotFound      = blockstore.ErrNotFound
)

// NewMetadataService returns an empty in-process metadata service.
func NewMetadataService() *MetadataService { return metadata.NewService() }

// NewClient creates a RobuSTore client over a metadata service
// (in-process or remote).
func NewClient(meta Metadata, opts Options) (*Client, error) {
	return robust.NewClient(meta, opts)
}

// DialMetadata connects to a networked metadata server (see
// metadata.NewNetworkServer / cmd/robustore-meta).
func DialMetadata(addr string) (*metadata.RemoteClient, error) {
	return metadata.DialRemote(addr)
}

// NewMemStore returns an in-memory block store (tests, examples).
func NewMemStore() Store { return blockstore.NewMemStore() }

// NewFileStore returns a block store persisting under root.
func NewFileStore(root string) (Store, error) { return blockstore.NewFileStore(root) }

// DialStore connects to a remote block server; the returned Store is
// a transport client usable directly with Client.AttachStore.
func DialStore(addr string) (Store, error) {
	return transport.Dial(addr, transport.ClientOptions{})
}

// NewBlockServer wraps a Store for network serving; call Serve or
// ListenAndServe on the result.
func NewBlockServer(store Store) *transport.Server {
	return transport.NewServer(store, transport.ServerOptions{})
}

// RunExperiment regenerates one of the paper's tables/figures by id
// (see experiments.Registry / `robustore-sim -list`).
func RunExperiment(id string, trials int) ([]experiments.Dataset, error) {
	opts := experiments.DefaultOptions()
	if trials > 0 {
		opts.Trials = trials
	}
	return experiments.Run(id, opts)
}
