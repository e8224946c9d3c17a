// R15 fixture: an exempt hand-sealed frame plus decoys that are not the
// synchronous path or a client-side seal.
Bytes probe(const Credential& cred) {
  // R15-exempt: wire-format probe, audited when the sync path was deleted.
  return seal(cred.name, cred.secret, 1, frame);
}
void serve(AsyncDispatcher dispatch, Envelope& env) {
  env.seal();
  dispatch(frame, [](Bytes reply) { use(reply); });
}
