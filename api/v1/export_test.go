package apiv1

// The one-pass scanners alone, for the external tests: ok is false on
// every input the Decode functions leave to json.Unmarshal.

func ScanBoards(data []byte) (Boards, bool) {
	d := decoder{data: data}
	return d.boardsDoc()
}

func ScanBoardsDelta(data []byte) (BoardsDelta, bool) {
	d := decoder{data: data}
	return d.deltaDoc()
}

func ScanIngestRequest(data []byte) (IngestRequest, bool) {
	d := decoder{data: data}
	return d.ingestDoc()
}
