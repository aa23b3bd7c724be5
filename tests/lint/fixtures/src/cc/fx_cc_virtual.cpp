// Fixture: virtual member under src/cc/ (no file there is exempt).
class FxCcVirtual {
 public:
  virtual void on_ack() = 0;
};
