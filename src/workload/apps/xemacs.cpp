/**
 * @file
 * XEmacs model.
 *
 * The paper's user employs xemacs "to create larger files and edit
 * multiple files". The multi-file open loop at session start is the
 * paper's own motivating example for path-based prediction (Section
 * 3.1): "the same scenario occurs when a user consecutively opens
 * multiple files upon starting an editor" — only the last open is
 * followed by a long idle period, so a single-PC predictor
 * mispredicts after every file while PCAP learns the whole path.
 *
 * One execution:
 *   - elisp startup;
 *   - an open loop over 1-4 files with inter-open gaps straddling
 *     the wait-window;
 *   - per-file edit/save cycles with long thinks;
 *   - an occasional "save as" after a sub-breakeven pause;
 *   - in some executions a compile subprocess scans the source tree
 *     once (xemacs is nearly single-process: local idle counts
 *     barely exceed global ones in Table 1).
 */

#include "workload/apps.hpp"

#include "workload/actor.hpp"

namespace pcap::workload {

namespace {

constexpr Address kBase = 0x08300000;
constexpr Address kPcLoadEl = kBase + 0x010;
constexpr Address kPcOpenFile = kBase + 0x020;
constexpr Address kPcReadFile = kBase + 0x030;
constexpr Address kPcSaveBuf = kBase + 0x040;
constexpr Address kPcSaveAs = kBase + 0x050;
constexpr Address kPcCompile = kBase + 0x060;

constexpr FileId kElispBase = 5000;
constexpr FileId kSourceBase = 5100;
constexpr FileId kSaveAsFile = 5200;
constexpr FileId kTreeBase = 5300;

constexpr int kElispCount = 30;
constexpr Pid kMainPid = 400;
constexpr Pid kCompilePid = 401;

class XemacsModel : public AppModel
{
  public:
    XemacsModel()
        : info_{"xemacs", 37,
                "editor; multi-file open loops, long edits, save-as "
                "aliasing"}
    {
    }

    const AppInfo &info() const override { return info_; }

    trace::Trace
    generate(int execution, Rng rng,
             std::vector<trace::TraceEvent> storage) const override
    {
        trace::TraceBuilder builder(info_.name, execution, kMainPid,
                                    std::move(storage));
        Actor main(builder, rng.fork(1), kMainPid, millisUs(50));
        main.setIntraGap(millisUs(8));

        // --- Elisp startup.
        for (int el = 0; el < kElispCount; ++el) {
            const std::uint32_t bytes = (12 + (el * 17) % 36) * 1024;
            main.readFile(kPcLoadEl, 4, kElispBase + el, 0, bytes,
                          4096);
        }

        // --- The open loop: the motivating example. Gaps between
        // consecutive opens straddle the one-second wait-window.
        const int files =
            static_cast<int>(main.rng().uniformInt(1, 4));
        for (int f = 0; f < files; ++f) {
            const FileId file = kSourceBase + f;
            main.open(kPcOpenFile, 3 + f, file);
            main.readFile(kPcReadFile, 3 + f, file, 0, 160 * 1024,
                          4096);
            if (f + 1 < files)
                main.pauseBetween(millisUs(250), millisUs(950));
        }

        // --- Edit/save cycles.
        const int cycles =
            static_cast<int>(main.rng().uniformInt(1, 3));
        for (int cycle = 0; cycle < cycles; ++cycle) {
            main.think(32.0, 1.5, 7.0, 1200.0);
            const int f = static_cast<int>(
                main.rng().uniformInt(0, files - 1));
            main.writeFile(kPcSaveBuf, 3 + f, kSourceBase + f, 0,
                           160 * 1024, 4096);

            if (cycle == cycles - 1 && main.rng().chance(0.12)) {
                // "Save as" to a different file after a short pause.
                main.pauseBetween(millisUs(2000), millisUs(4200));
                main.open(kPcSaveAs, 9, kSaveAsFile);
                main.writeFile(kPcSaveAs, 9, kSaveAsFile, 0,
                               160 * 1024, 4096);
            }
        }

        // --- Occasional compile subprocess scanning the tree once.
        if (main.rng().chance(0.3)) {
            main.think(10.0, 0.8, 7.0, 60.0);
            main.fork(kCompilePid);
            Actor compiler(builder, rng.fork(2), kCompilePid,
                           main.now());
            compiler.setIntraGap(millisUs(5));
            for (int src = 0; src < 24; ++src) {
                compiler.readFile(kPcCompile, 4, kTreeBase + src, 0,
                                  8 * 1024, 4096);
            }
            compiler.exit();
            // The user inspects the compile output.
            main.advanceTo(compiler.now());
            main.think(11.0, 0.8, 7.0, 90.0);
            main.writeFile(kPcSaveBuf, 3, kSourceBase, 0, 160 * 1024,
                           4096);
        }

        return builder.finish(main.now() + millisUs(500));
    }

  private:
    AppInfo info_;
};

} // namespace

std::unique_ptr<AppModel>
makeXemacs()
{
    return std::make_unique<XemacsModel>();
}

} // namespace pcap::workload
