// R15 fixture: the synchronous request path and a hand-sealed client frame.
using Dispatcher = std::function<Bytes(const Bytes&)>;
Bytes poll(const Credential& cred, AsyncDispatcher dispatch) {
  InProcConnection conn(dispatch);
  return conn.call(seal(cred.name, cred.secret, 1, frame));
}
