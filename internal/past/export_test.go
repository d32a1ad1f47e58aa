package past

// Unexported routing decisions, opened to the external test package.
var (
	ReplicaSet    = (*Node).replicaSet
	NearestHolder = (*Node).nearestHolder
)

// ReReplicate runs one anti-entropy sweep.
var ReReplicate = (*Node).reReplicate
