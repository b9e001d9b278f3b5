package rpcsvc

// RawCall performs one net/rpc call on the client's current transport, so
// external tests can speak to a server outside the session protocol.
func (c *Client) RawCall(method string, args, reply any) error { return c.call(method, args, reply) }
